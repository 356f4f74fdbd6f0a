package main

import (
	"encoding/json"
	"math/rand"

	"mdmatch/internal/gen"
	"mdmatch/internal/record"
)

// Request sequences are a pure function of the harness -seed. The
// server never sees the seed: it receives only the generated requests.
//
//   - match queries: 70% noisy variants of billing records of holders
//     the server indexed (so the blocking index is used and candidates
//     are compared), 30% billing records of a foreign-seed corpus (so
//     the index is mostly bypassed);
//   - ingest records: the credit side of another foreign-seed corpus,
//     fresh holders with the generator's 80% dirty duplicates, shuffled
//     so duplicates arrive interleaved with first sightings.

const (
	variantShare     = 0.70
	variantNoiseProb = 0.25 // per target attribute, on top of the corpus's own dirt
	foreignMatchK    = 400
)

// matchQuery is one billing-shaped query and the holder of the base
// corpus it was derived from (-1 for a foreign record).
type matchQuery struct {
	Values []string
	Holder int
}

// matchQueries derives n queries from seed.
func matchQueries(base *gen.Dataset, seed int64, n int) ([]matchQuery, error) {
	fcfg := gen.DefaultConfig(foreignMatchK)
	fcfg.Seed = 1_000_003 + seed
	foreign, err := gen.Generate(fcfg)
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(seed))
	noiser := gen.NewNoiser(rnd)
	target := map[string]bool{}
	for _, a := range gen.Target(base.Ctx).Y2 {
		target[a] = true
	}
	attrs := base.Billing.Rel.AttrNames()
	out := make([]matchQuery, n)
	for i := range out {
		if rnd.Float64() < variantShare {
			t := base.Billing.Tuples[rnd.Intn(base.Billing.Len())]
			vals := append([]string(nil), t.Values...)
			for j, a := range attrs {
				if target[a] && rnd.Float64() < variantNoiseProb {
					vals[j] = noiser.Corrupt(a, vals[j])
				}
			}
			out[i] = matchQuery{Values: vals, Holder: base.BillingHolder[t.ID]}
		} else {
			t := foreign.Billing.Tuples[rnd.Intn(foreign.Billing.Len())]
			out[i] = matchQuery{Values: append([]string(nil), t.Values...), Holder: -1}
		}
	}
	return out, nil
}

// ingestRecord is one credit-shaped record to POST, the id it is posted
// under, and its holder in the foreign corpus (the clustering truth).
type ingestRecord struct {
	ID     int
	Values []string
	Holder int
}

// ingestRecords derives n fresh credit records from seed. Ids continue
// after the base corpus (firstID is its record count), so a reference
// run and the server agree on them without a round trip.
func ingestRecords(seed int64, n, firstID int) ([]ingestRecord, error) {
	// 1.8 records per holder on average (each holder's clean tuple plus
	// a duplicate with probability 0.8); over-provision a little.
	cfg := gen.DefaultConfig(n*10/17 + 8)
	cfg.Seed = 2_000_003 + seed
	ds, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	tuples := append([]*record.Tuple(nil), ds.Credit.Tuples...)
	rnd := rand.New(rand.NewSource(seed))
	rnd.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	if len(tuples) > n {
		tuples = tuples[:n]
	}
	out := make([]ingestRecord, len(tuples))
	for i, t := range tuples {
		out[i] = ingestRecord{ID: firstID + i, Values: t.Values, Holder: ds.CreditHolder[t.ID]}
	}
	return out, nil
}

// recordBody is the wire form of cmd/matchd's recordPayload, named
// attributes (the form its documentation leads with).
type recordBody struct {
	ID     *int              `json:"id,omitempty"`
	Record map[string]string `json:"record"`
}

func named(attrs, vals []string) map[string]string {
	m := make(map[string]string, len(attrs))
	for i, a := range attrs {
		m[a] = vals[i]
	}
	return m
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always encode
	}
	return b
}

// matchBody encodes one /match request.
func matchBody(attrs, vals []string) []byte {
	return mustJSON(recordBody{Record: named(attrs, vals)})
}

// batchBody encodes one /match {"batch": …} request.
func batchBody(attrs []string, qs []matchQuery) []byte {
	batch := make([]recordBody, len(qs))
	for i, q := range qs {
		batch[i] = recordBody{Record: named(attrs, q.Values)}
	}
	return mustJSON(map[string]any{"batch": batch})
}

// insertBody encodes one POST /records request with an explicit id.
func insertBody(attrs []string, r ingestRecord) []byte {
	id := r.ID
	return mustJSON(recordBody{ID: &id, Record: named(attrs, r.Values)})
}
