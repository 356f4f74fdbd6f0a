package stream

import "context"

// Chase provenance: the explain layer of the incremental chase.
//
// A TraceSink observes the chase's COMMITTED effects — candidates
// enumerated, pairs examined, LHS matches, cluster links, firings with
// their resolved cell values — through hooks placed at exactly the
// points where the chase applies those effects. The chase is serial, so
// the provenance stream is a pure function of (data, Σ, arrival order)
// and identical at any WithWorkers count (property-tested in
// provenance_test.go). A nil sink (the default) costs one nil check per
// hook site.
//
// Sinks are delivered per insertion through the context
// (WithTraceSink) and observed under the enforcer's insertion lock, in
// serialization order; implementations must not call back into the
// Enforcer.
type TraceSink interface {
	// Candidates reports one rule's scan frontier size for one pass
	// (blockable and materialized-dense scans only; a dense bit-filter
	// sweep enumerates no frontier, and reports none).
	Candidates(rule, n int)
	// Examined reports one candidate pair visited for a rule.
	Examined(rule int)
	// Matched reports a pair whose LHS held, by record id.
	Matched(rule, leftID, rightID int)
	// Linked reports a cluster merge caused by a match of an
	// identity rule (ClusterRules); already-linked matches are silent.
	Linked(rule, leftID, rightID int)
	// Fired reports one chase application: the rule, the record pair,
	// and every RHS cell pair with its pre-firing values and the
	// resolved value written back.
	Fired(rule, leftID, rightID int, cells []CellChange)
}

// CellChange is one RHS cell pair of a firing: the column pair, both
// sides' values before the firing, and the resolved value both cells
// hold after it (longest wins, ties lexicographically largest).
type CellChange struct {
	LeftCol     int    `json:"left_col"`
	RightCol    int    `json:"right_col"`
	LeftBefore  string `json:"left_before"`
	RightBefore string `json:"right_before"`
	After       string `json:"after"`
}

// LinkEvent is one committed cluster merge: the Σ index of the identity
// rule whose match caused it and the record pair that matched. Rule is
// -1 for links synthesized by RestoreState, where the snapshot records
// cluster membership but not the rule history behind it.
type LinkEvent struct {
	Rule  int `json:"rule"`
	Left  int `json:"left"`
	Right int `json:"right"`
}

type sinkKeyType struct{}

// WithTraceSink returns a context that delivers sink to the enforcement
// triggered by the Insert/InsertBatch call carrying it. The sink
// observes that one insertion's chase; it is detached when the
// insertion completes.
func WithTraceSink(ctx context.Context, sink TraceSink) context.Context {
	return context.WithValue(ctx, sinkKeyType{}, sink)
}

func sinkFrom(ctx context.Context) TraceSink {
	s, _ := ctx.Value(sinkKeyType{}).(TraceSink)
	return s
}

// RuleFunnel is one rule's explain funnel for a single enforcement:
// how many candidate pairs the scan enumerated, how many it examined,
// how many matched the LHS, and how many fired.
type RuleFunnel struct {
	Rule       int   `json:"rule"`
	Candidates int64 `json:"candidates"`
	Examined   int64 `json:"examined"`
	Matched    int64 `json:"matched"`
	Fired      int64 `json:"fired"`
}

// Firing is one chase application in commit order.
type Firing struct {
	// Seq numbers the firing within its enforcement, from 1.
	Seq   int          `json:"seq"`
	Rule  int          `json:"rule"`
	Left  int          `json:"left"`
	Right int          `json:"right"`
	Cells []CellChange `json:"cells"`
}

// Explain is the standard TraceSink: it accumulates one enforcement's
// provenance as a per-rule funnel plus the firing and link sequences in
// commit order. Zero-valued fields marshal compactly; the whole struct
// is JSON-ready for a service's ?explain=1 surface.
type Explain struct {
	Funnel  []RuleFunnel `json:"funnel"`
	Firings []Firing     `json:"firings"`
	Links   []LinkEvent  `json:"links"`
}

// NewExplain builds an Explain sink for an enforcer over numRules rules.
func NewExplain(numRules int) *Explain {
	ex := &Explain{Funnel: make([]RuleFunnel, numRules)}
	for i := range ex.Funnel {
		ex.Funnel[i].Rule = i
	}
	return ex
}

func (ex *Explain) Candidates(rule, n int) { ex.Funnel[rule].Candidates += int64(n) }
func (ex *Explain) Examined(rule int)      { ex.Funnel[rule].Examined++ }
func (ex *Explain) Matched(rule, leftID, rightID int) {
	ex.Funnel[rule].Matched++
}
func (ex *Explain) Linked(rule, leftID, rightID int) {
	ex.Links = append(ex.Links, LinkEvent{Rule: rule, Left: leftID, Right: rightID})
}
func (ex *Explain) Fired(rule, leftID, rightID int, cells []CellChange) {
	ex.Funnel[rule].Fired++
	ex.Firings = append(ex.Firings, Firing{
		Seq: len(ex.Firings) + 1, Rule: rule, Left: leftID, Right: rightID, Cells: cells,
	})
}

// ClusterTrail returns the chain of committed link events that built
// the record's cluster, in commit order: the identity-rule matches that
// merged clusters (Rule -1 entries stand for links restored from a
// snapshot). A singleton record has an empty trail. The trail is a side
// log, deliberately OUTSIDE State: recovery bit-equivalence covers the
// enforcement state proper, and the trail is provenance about how it
// was reached.
func (e *Enforcer) ClusterTrail(id int) ([]LinkEvent, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	row, ok := e.rowByID[id]
	if !ok {
		return nil, false
	}
	root := e.clusters.find(int32(row))
	var out []LinkEvent
	for _, ev := range e.links {
		if e.clusters.find(int32(e.rowByID[ev.Left])) == root {
			out = append(out, ev)
		}
	}
	return out, true
}

// --- commit-point effect helpers ---
//
// visit applies every effect of a candidate through these helpers, so
// each provenance hook fires at exactly one program point.

// noteExamined applies the pair-examined effects of one visit.
func (e *Enforcer) noteExamined(r *ruleState) {
	e.stats.Chase.PairsExamined++
	r.examined++
	if e.sink != nil {
		e.sink.Examined(r.idx)
	}
}

// noteMatched applies the LHS-matched effects of one visit.
func (e *Enforcer) noteMatched(r *ruleState, i1, i2 int) {
	r.matched++
	if e.sink != nil {
		e.sink.Matched(r.idx, e.inst.Tuples[i1].ID, e.inst.Tuples[i2].ID)
	}
}

// linkPair identifies the records' clusters on an identity-rule match
// and records the link's provenance when the merge actually happened.
func (e *Enforcer) linkPair(r *ruleState, i1, i2 int) {
	if !r.link || i1 == i2 {
		return
	}
	if !e.clusters.union(i1, i2) {
		return
	}
	ev := LinkEvent{Rule: r.idx, Left: e.inst.Tuples[i1].ID, Right: e.inst.Tuples[i2].ID}
	e.links = append(e.links, ev)
	if e.sink != nil {
		e.sink.Linked(ev.Rule, ev.Left, ev.Right)
	}
}

// fire applies one firing: the RHS cell identifications, the chase
// counters, and — with a sink attached — the cell pairs' before values
// (read BEFORE any union, because the chase writes resolved values back
// into the tuples immediately) and the resolved after values.
func (e *Enforcer) fire(r *ruleState, i1, i2 int) {
	var cells []CellChange
	if e.sink != nil {
		cells = make([]CellChange, len(r.rhsCols))
		for k, p := range r.rhsCols {
			cells[k] = CellChange{
				LeftCol: p[0], RightCol: p[1],
				LeftBefore:  e.inst.Tuples[i1].Values[p[0]],
				RightBefore: e.inst.Tuples[i2].Values[p[1]],
			}
		}
	}
	for _, p := range r.rhsCols {
		e.ch.union(e.ch.cell(i1, p[0]), e.ch.cell(i2, p[1]))
	}
	e.applied = append(e.applied, r.idx)
	e.stats.Applications++
	e.stats.Chase.RuleFirings++
	r.fired++
	if e.sink != nil {
		for k, p := range r.rhsCols {
			cells[k].After = e.inst.Tuples[i1].Values[p[0]]
			_ = p
		}
		e.sink.Fired(r.idx, e.inst.Tuples[i1].ID, e.inst.Tuples[i2].ID, cells)
	}
}

// linkRestored synthesizes the Rule -1 trail entries for cluster links
// re-unioned from a snapshot (see LinkEvent).
func (e *Enforcer) linkRestored(leftID, rightID int) {
	e.links = append(e.links, LinkEvent{Rule: -1, Left: leftID, Right: rightID})
}
