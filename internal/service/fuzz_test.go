package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRunRequest decodes two /v1/run bodies the way handleRun does and
// checks the identity contract on whatever decodes: normalize fills the
// defaults and is idempotent, and two requests share a Key exactly when
// their normalized identity fields (experiment, scale, seed) are equal.
// The corpus seeds the defaulting pairs, a timeout-only difference, and
// the field-separator collision an unquoted key encoding would allow.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"experiment":"table2","scale":"default","seed":1}`), []byte(`{"experiment":"table2"}`))
	f.Add([]byte(`{"experiment":"fig8","scale":"smoke","seed":0}`), []byte(`{"experiment":"fig8","scale":"smoke","seed":1,"timeout_ms":500}`))
	f.Add([]byte(`{"experiment":"a|b","scale":"c"}`), []byte(`{"experiment":"a","scale":"b|c"}`))
	f.Add([]byte(`{"experiment":"x\"|\"y","seed":-2}`), []byte(`{"experiment":"x","scale":"|\"y\"","seed":-2}`))
	f.Add([]byte(`{"experiment":"\u00e9","scale":"\ud800"}`), []byte(`{"experiment":"table2","scale":`))

	decode := func(body []byte) (RunRequest, bool) {
		var req RunRequest
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		return req, err == nil
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, okA := decode(a)
		rb, okB := decode(b)
		for _, r := range []struct {
			req RunRequest
			ok  bool
		}{{ra, okA}, {rb, okB}} {
			if !r.ok {
				continue
			}
			n := r.req.normalize()
			if n.Seed == 0 || n.Scale == "" || n.normalize() != n {
				t.Fatalf("normalize(%+v) = %+v: defaults unfilled or not idempotent", r.req, n)
			}
			if Key(r.req) != Key(n) {
				t.Fatalf("Key(%+v) differs from the key of its normalized form", r.req)
			}
		}
		if !okA || !okB {
			return
		}
		na, nb := ra.normalize(), rb.normalize()
		same := na.Experiment == nb.Experiment && na.Scale == nb.Scale && na.Seed == nb.Seed
		if (Key(ra) == Key(rb)) != same {
			t.Fatalf("identity equal = %v but keys equal = %v:\n%+v\n%+v", same, !same, na, nb)
		}
	})
}
