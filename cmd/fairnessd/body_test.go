package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/service"
)

// TestBodySizeLimit pins the request-body cap: every decoding endpoint
// answers 413 for an oversized body, and a well-formed request under
// the same cap still succeeds.
func TestBodySizeLimit(t *testing.T) {
	pool := service.New(service.Config{Workers: 1, CacheSize: 8})
	t.Cleanup(pool.Close)
	srv := newServer(pool, &cliflags.Chaos{Timeout: 2 * time.Second}, 1000, 512)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// A syntactically valid JSON object far past the 512-byte cap.
	huge := `{"proto":"` + strings.Repeat("x", 4096) + `"}`
	for _, ep := range []string{"/v1/estimate", "/v1/sup", "/v1/sweep", "/v1/session"} {
		resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status = %d, want %d", ep, resp.StatusCode, http.StatusRequestEntityTooLarge)
		}
	}

	// Under the cap the endpoint still works.
	payload, _ := json.Marshal(service.EstimateParams{Proto: "pi1", Adv: "agen", Runs: 50, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body under cap: status = %d, want 200", resp.StatusCode)
	}
}

// TestEstimateRequestContextCanceled pins the cancellation wiring: a
// synchronous estimate whose request context is already dead fails
// without running a single simulation.
func TestEstimateRequestContextCanceled(t *testing.T) {
	pool := service.New(service.Config{Workers: 1, CacheSize: 8})
	t.Cleanup(pool.Close)
	srv := newServer(pool, &cliflags.Chaos{Timeout: 2 * time.Second}, 1000, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	payload, _ := json.Marshal(service.EstimateParams{Proto: "pi1", Adv: "agen", Runs: 500, Seed: 9})
	req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(payload)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("canceled request: status = %d, want 500 (body %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "canceled") {
		t.Errorf("error body %q does not mention cancellation", rec.Body.String())
	}
	if got := pool.Metrics(); got.Runs != 0 {
		t.Errorf("canceled request ran %d simulations, want 0", got.Runs)
	}
}

// TestSweepJobSurvivesRequest pins that the async sweep endpoint is
// NOT tied to the request context: the job keeps running after the 202
// response's request context dies, and polling finds it done.
func TestSweepJobSurvivesRequest(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := map[string]any{
		"Families": []string{"pi1"},
		"Gammas":   []map[string]float64{{"G00": 0.5, "G01": 0, "G10": 2, "G11": 1}},
		"Ns":       []int{2},
		"Costs":    []string{"zero"},
		"Runs":     40,
		"Seed":     3,
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{"spec": spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status = %d, body %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	// The submit request is long gone; the job must still complete.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := postGet(t, ts.URL, v.JobID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status = %d, body %s", resp.StatusCode, body)
		}
		var jv jobView
		if err := json.Unmarshal(body, &jv); err != nil {
			t.Fatal(err)
		}
		if jv.Status == "done" {
			if jv.Sweep == nil || !jv.Sweep.OK {
				t.Fatalf("sweep finished badly: %+v", jv.Sweep)
			}
			return
		}
		if jv.Status == "failed" {
			t.Fatalf("sweep failed: %s", jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish in time")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func postGet(t *testing.T, base string, id uint64) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + strconv.FormatUint(id, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
