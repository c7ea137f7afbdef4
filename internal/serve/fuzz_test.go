package serve

import (
	"encoding/json"
	"testing"
)

// FuzzCreateSpec throws arbitrary JSON at the session-creation path, as
// POST /v1/sessions receives it: decode into a FilterSpec, Create, then
// step once. Each stage must return an error or a result, never panic.
func FuzzCreateSpec(f *testing.F) {
	for _, seed := range []string{
		`{"model":"ungm","seed":7}`,
		`{"model":"ungm","sub_filters":4,"particles_per":16,"exchange_scheme":"torus","exchange_count":1,"seed":1}`,
		`{"model":"ungm","sub_filters":8,"particles_per":8,"exchange_scheme":"all-to-all","exchange_count":2,"resampler":"systematic","policy":"ess:0.5","estimator":"weighted-mean","seed":3}`,
		`{"model":"ungm","sub_filters":4,"particles_per":8,"exchange_count":-1}`,
		`{"model":"ungm","sub_filters":2048,"particles_per":1025}`,
		`{"model":"nope"}`,
		`{"model":"ungm","policy":"random:2"}`,
		`[]`,
	} {
		f.Add([]byte(seed), 4.2)
	}
	s := NewServer(Config{Workers: 2}, testModels())
	f.Cleanup(s.Shutdown)
	f.Fuzz(func(t *testing.T, body []byte, z float64) {
		var sp FilterSpec
		if err := json.Unmarshal(body, &sp); err != nil {
			return
		}
		if sp.Model == "slow-ungm" {
			return // sleeps per particle; nothing to find that ungm misses
		}
		id, err := s.Create(sp)
		if err != nil {
			return
		}
		defer s.Close(id)
		res, err := s.Step(id, nil, []float64{z})
		if err == nil && res.Step != 1 {
			t.Fatalf("first step of %s reported step %d", body, res.Step)
		}
	})
}

// FuzzRestoreCheckpoint feeds corrupted checkpoints to Restore, as
// POST /v1/restore and a migration receive them. The corpus is a real
// checkpoint, its truncations, and copies whose stream states no buffer
// saves; a restore must fail with an error and leave no session behind,
// or yield a session that steps, never panic.
func FuzzRestoreCheckpoint(f *testing.F) {
	s := NewServer(Config{Workers: 2}, testModels())
	f.Cleanup(s.Shutdown)
	for _, sp := range []FilterSpec{
		{Model: "ungm", SubFilters: 4, ParticlesPer: 8, Seed: 1},
		{Model: "ungm", SubFilters: 4, ParticlesPer: 8, Resampler: "systematic", Seed: 2},
	} {
		id, err := s.Create(sp)
		if err != nil {
			f.Fatal(err)
		}
		for k := 1; k <= 3; k++ {
			if _, err := s.Step(id, nil, obs(0, k)); err != nil {
				f.Fatal(err)
			}
		}
		cp, err := s.Checkpoint(id)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := json.Marshal(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		for _, cut := range []int{1, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
			f.Add(blob[:cut])
		}
		badLast := *cp
		badLast.LastState = "not base64"
		bad := malformedStreams(f, cp)
		bad["an undecodable last state"] = &badLast
		for _, cp := range bad {
			blob, err := json.Marshal(cp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
		if err := s.Close(id); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var cp Checkpoint
		if err := json.Unmarshal(blob, &cp); err != nil {
			return
		}
		if cp.Spec.Model == "slow-ungm" {
			return
		}
		before := len(s.Sessions())
		id, err := s.Restore(&cp)
		if err != nil {
			if after := len(s.Sessions()); after != before {
				t.Fatalf("a rejected restore (%v) changed the session count from %d to %d", err, before, after)
			}
			return
		}
		defer s.Close(id)
		if _, err := s.Estimate(id); err != nil {
			t.Fatalf("restored session has no estimate: %v", err)
		}
		if _, err := s.Step(id, nil, obs(0, cp.Step+1)); err != nil {
			t.Fatalf("restored session cannot step: %v", err)
		}
	})
}
