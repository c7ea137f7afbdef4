package esthera_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"esthera"
	"esthera/internal/shard"
)

// nameCases are the name-typed filter options with every accepted name
// and a spread of retired, aliased and bogus ones. "random" is a policy
// but not a scheme.
var nameCases = []struct {
	field string // the FilterSpec JSON field
	names []string
	ok    bool
}{
	{"exchange_scheme", []string{"", "ring", "torus", "all-to-all", "none"}, true},
	{"exchange_scheme", []string{"hypercube", "cube", "random-pairs", "random", "gossip", "alltoall", "a2a", "torus2d", "2d-torus", "mesh", "Ring"}, false},
	{"resampler", []string{"", "rws", "vose", "systematic"}, true},
	{"resampler", []string{"stratified", "multinomial", "residual", "metropolis", "bogus"}, false},
	{"policy", []string{"", "always", "never", "ess", "ess:0.3", "random", "random:0.25"}, true},
	{"policy", []string{"sometimes", "ess:0", "random:2", "never:1"}, false},
	{"estimator", []string{"", "max-weight", "weighted-mean"}, true},
	{"estimator", []string{"median", "mean"}, false},
}

// withName returns cfg with the option named by its spec field set.
func withName(cfg esthera.Config, field, name string) esthera.Config {
	switch field {
	case "exchange_scheme":
		cfg.ExchangeScheme = name
	case "resampler":
		cfg.Resampler = name
	case "policy":
		cfg.Policy = name
	case "estimator":
		cfg.Estimator = name
	}
	return cfg
}

// TestEntryPointsAgree drives every name through each entry point that
// parses filter options — Config.Validate, NewFilter,
// NewSequentialFilter, a server's POST /v1/sessions and POST
// /v1/restore, and a router's POST /v1/sessions — and requires the same
// verdict from all of them. A spec carrying the retired "streams" field
// is refused everywhere a body is read.
func TestEntryPointsAgree(t *testing.T) {
	srv := esthera.NewServer(esthera.ServerConfig{Workers: 1})
	defer srv.Shutdown()
	replica := httptest.NewServer(esthera.NewServerHandler(srv))
	defer replica.Close()
	router, err := shard.NewRouter(shard.RouterConfig{
		Shards:        []shard.ShardSpec{{Name: "a", BaseURL: replica.URL}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(shard.NewRouterHandler(router))
	defer front.Close()

	post := func(base, path string, body any) int {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	spec := func(field, name string) map[string]any {
		return map[string]any{"model": "ungm", "sub_filters": 4, "particles_per": 8, "exchange_count": 1, "seed": 1, field: name}
	}

	// A checkpoint to restore under each name: the filter is rebuilt
	// from the spec, so only the spec's names change.
	var created struct{ ID string }
	resp, err := http.Post(replica.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"spec":{"model":"ungm","sub_filters":4,"particles_per":8,"exchange_count":1,"seed":1}}`)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(replica.URL + "/v1/sessions/" + created.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	var ckpt map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ckpt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	restore := func(sp map[string]any) int {
		cp := make(map[string]any, len(ckpt))
		for k, v := range ckpt {
			cp[k] = v
		}
		cp["spec"] = sp
		return post(replica.URL, "/v1/restore", cp)
	}

	m, _ := esthera.NewUNGMScenario(1)
	base := esthera.Config{SubFilters: 4, ParticlesPerSubFilter: 8, ExchangeCount: 1, Seed: 1, Workers: 1}
	for _, c := range nameCases {
		for _, name := range c.names {
			cfg := withName(base, c.field, name)
			_, errPar := esthera.NewFilter(m, cfg)
			_, errSeq := esthera.NewSequentialFilter(m, cfg)
			for _, v := range []struct {
				entry string
				ok    bool
			}{
				{"Config.Validate", cfg.Validate() == nil},
				{"NewFilter", errPar == nil},
				{"NewSequentialFilter", errSeq == nil},
			} {
				if v.ok != c.ok {
					t.Errorf("%s %q: %s accepted=%v, want %v", c.field, name, v.entry, v.ok, c.ok)
				}
			}
			want := http.StatusBadRequest
			if c.ok {
				want = http.StatusCreated
			}
			sp := spec(c.field, name)
			for _, v := range []struct {
				entry string
				code  int
			}{
				{"serve POST /v1/sessions", post(replica.URL, "/v1/sessions", map[string]any{"spec": sp})},
				{"serve POST /v1/restore", restore(sp)},
				{"router POST /v1/sessions", post(front.URL, "/v1/sessions", map[string]any{"spec": sp})},
			} {
				if v.code != want {
					t.Errorf("%s %q: %s answered %d, want %d", c.field, name, v.entry, v.code, want)
				}
			}
		}
	}

	for _, streams := range []string{"philox", "mtgp"} {
		sp := spec("streams", streams)
		for _, v := range []struct {
			entry string
			code  int
		}{
			{"serve POST /v1/sessions", post(replica.URL, "/v1/sessions", map[string]any{"spec": sp})},
			{"serve POST /v1/restore", restore(sp)},
			{"router POST /v1/sessions", post(front.URL, "/v1/sessions", map[string]any{"spec": sp})},
		} {
			if v.code != http.StatusBadRequest {
				t.Errorf("streams %q: %s answered %d, want 400", streams, v.entry, v.code)
			}
		}
	}
}
