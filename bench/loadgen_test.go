package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 1000, 5000)
	b := poissonSchedule(7, 1000, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if c := poissonSchedule(8, 1000, 5000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	// 5000 arrivals at 1000/s take 5 s give or take a few percent.
	if total := a[len(a)-1].Seconds(); math.Abs(total-5) > 0.35 {
		t.Errorf("5000 arrivals at 1000/s took %.3f s", total)
	}
}

// Three ops all due at t=0 on one connection whose server takes 20 ms
// per op: an open loop charges the second and third op for the time
// they queued, and reports that they were sent late.
func TestOpenLoopTimesFromDueAndAccountsLateness(t *testing.T) {
	const service = 20 * time.Millisecond
	send := func(int) (int, []byte) {
		time.Sleep(service)
		return 200, nil
	}
	due := []time.Duration{0, 0, 0}
	res, wall := openLoop(send, due, 1, time.Now, time.Sleep)
	for i, r := range res {
		wantLat := time.Duration(i+1) * service
		if r.Latency < wantLat || r.Latency > wantLat+15*time.Millisecond {
			t.Errorf("op %d: latency %v, want about %v (from its due time, queueing included)", i, r.Latency, wantLat)
		}
		wantLate := time.Duration(i) * service
		if r.Late < wantLate-time.Millisecond || r.Late > wantLate+15*time.Millisecond {
			t.Errorf("op %d: sent %v late, want about %v", i, r.Late, wantLate)
		}
		if !r.ok() {
			t.Errorf("op %d: status %d", i, r.Status)
		}
	}
	if wall < 3*service {
		t.Errorf("wall %v shorter than three services", wall)
	}
}

// The dispatcher waits for due times: an op due in the future is not
// sent early, and an idle connection sends it on time.
func TestOpenLoopWaitsForDueTime(t *testing.T) {
	var sentAt [2]time.Time
	start := time.Now()
	send := func(i int) (int, []byte) {
		sentAt[i] = time.Now()
		return 200, nil
	}
	res, _ := openLoop(send, []time.Duration{0, 30 * time.Millisecond}, 2, time.Now, preciseSleep)
	if d := sentAt[1].Sub(start); d < 30*time.Millisecond {
		t.Errorf("op due at 30 ms was sent after %v", d)
	}
	if res[1].Late > 10*time.Millisecond {
		t.Errorf("idle connection sent %v late", res[1].Late)
	}
}
