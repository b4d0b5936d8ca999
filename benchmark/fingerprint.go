package main

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// fingerprintOps is how many generated operations per worker the workload
// fingerprint covers. An operation is one value a body drew from its random
// stream: a key, a type choice or a parameter.
const fingerprintOps = 10_000

// recorder hashes (FNV-1a, 64 bit) what the fingerprint pass observes.
type recorder struct {
	h   uint64
	ops int
}

func (r *recorder) note(v uint64) {
	for i := 0; i < 8; i++ {
		r.h ^= v & 0xff
		r.h *= 0x100000001b3
		v >>= 8
	}
}

// recSource records every value the bodies draw from the worker's stream.
type recSource struct {
	src rand.Source64
	rec *recorder
}

func (s *recSource) Int63() int64 {
	v := s.src.Int63()
	s.rec.note(uint64(v))
	s.rec.ops++
	return v
}

func (s *recSource) Uint64() uint64 {
	v := s.src.Uint64()
	s.rec.note(v)
	s.rec.ops++
	return v
}

func (s *recSource) Seed(seed int64) { s.src.Seed(seed) }

// recDist records every key a body takes from the distribution the harness
// handed it, so an edit to the key mapping in internal/workload shows even
// when it consumes the same random values.
type recDist struct {
	d   workload.Dist
	rec *recorder
}

func (d recDist) Next(rng *rand.Rand) uint64 {
	k := d.d.Next(rng)
	d.rec.note(k)
	return k
}

// fingerprint replays the start of every worker's stream — the same
// transactions the measured run then begins with — one worker at a time on
// the freshly loaded database, and aborts each transaction instead of
// committing it, so the database is left as loaded. The hash covers, per
// transaction, the type drawn, every random value and key the body drew, the
// rows it read and its outcome: the traffic as the engine sees it. Because
// the pass is single-threaded on identical data, the three schemes must
// agree on it, which runWorkload checks.
func fingerprint(inst *instance, workers int, seed int64) ([]uint64, error) {
	out := make([]uint64, workers)
	for w := range out {
		rec := &recorder{h: 0xcbf29ce484222325}
		src := rand.NewSource(workerSeed(seed, w)).(rand.Source64)
		rng := rand.New(&recSource{src: src, rec: rec})
		types := inst.types(func(d workload.Dist) workload.Dist { return recDist{d, rec} })
		total := totalWeight(types)
		for rec.ops < fingerprintOps {
			ti := pickType(types, total, rng)
			t := &types[ti]
			tx := begin(inst.db, t)
			reads, err := t.fn(tx, rng)
			_ = tx.Abort() // the pass must leave the database as loaded
			outcome := uint64(0)
			if err != nil {
				if !specifiedMiss(err) {
					return nil, fmt.Errorf("fingerprint pass: %s alone on the database failed: %w", t.name, err)
				}
				outcome = 1
			}
			rec.note(uint64(ti))
			rec.note(uint64(reads))
			rec.note(outcome)
		}
		out[w] = rec.h
	}
	return out, nil
}
