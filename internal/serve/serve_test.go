package serve_test

// httptest coverage of the campaign service: submit/status/results,
// cancellation of queued and running campaigns, SSE streaming, the
// registry and health endpoints, and the cross-campaign dedup
// guarantee (a concurrent resubmission of a running spec computes
// nothing itself).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/report"
	"sparsehamming/internal/serve"
	"sparsehamming/internal/spec"
)

// costSpecJSON is a small valid cost-mode campaign (two sweeps, three
// unique jobs).
const costSpecJSON = `{
 "name": "svc-test",
 "sweeps": [
  {"label": "one", "mode": "cost", "arch": {"scenario": "a"},
   "topologies": [{"kind": "mesh"}, {"kind": "torus"}]},
  {"label": "two", "mode": "cost", "arch": {"scenario": "a"},
   "topologies": [{"kind": "ring"}]}
 ]
}`

// stubEval is an instant deterministic evaluator for handler tests.
func stubEval(j exp.Job) (*exp.Result, error) {
	return &exp.Result{Topology: j.Topo, RouterRadix: 4, AvgHops: 2.5}, nil
}

// newTestServer wires a serve.Server around the evaluator and returns
// it with its httptest frontend.
func newTestServer(t *testing.T, eval func(exp.Job) (*exp.Result, error), executors int) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(serve.Config{
		Runner:    &exp.Runner{Eval: eval, Workers: 2, Cache: exp.NewCache()},
		Executors: executors,
	})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// submit POSTs a spec body and decodes the campaign resource.
func submit(t *testing.T, ts *httptest.Server, body string) serve.CampaignJSON {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var snap serve.CampaignJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// getJSON decodes a GET response into v, returning the status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal waits for the campaign to leave the store as terminal.
func waitTerminal(t *testing.T, srv *serve.Server, id string) serve.CampaignJSON {
	t.Helper()
	c, ok := srv.Store().Get(id)
	if !ok {
		t.Fatalf("campaign %s not in store", id)
	}
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign %s did not finish: %+v", id, c.Snapshot())
	}
	return c.Snapshot()
}

func TestSubmitStatusResults(t *testing.T) {
	srv, ts := newTestServer(t, stubEval, 2)
	snap := submit(t, ts, costSpecJSON)
	if snap.Jobs != 3 || snap.UniqueJobs != 3 || len(snap.Sweeps) != 2 {
		t.Fatalf("submit snapshot = %+v", snap)
	}
	if snap.SpecHash == "" || !strings.Contains(snap.ID, snap.SpecHash[:8]) {
		t.Errorf("id %q does not carry the spec hash %q", snap.ID, snap.SpecHash)
	}

	final := waitTerminal(t, srv, snap.ID)
	if final.Status != serve.StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if final.Progress.Done != 3 || final.Progress.Computed != 3 {
		t.Errorf("progress = %+v", final.Progress)
	}
	if final.Report == nil || final.Report.Computed != 3 {
		t.Errorf("report = %+v", final.Report)
	}

	// Status endpoint agrees with the store snapshot.
	var got serve.CampaignJSON
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+snap.ID, &got); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if got.Status != serve.StatusDone || got.Progress != final.Progress {
		t.Errorf("status endpoint = %+v", got)
	}

	// JSON results: sweeps align with the spec's expansion.
	var res serve.ResultsJSON
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+snap.ID+"/results", &res); code != http.StatusOK {
		t.Fatalf("results code %d", code)
	}
	if len(res.Sweeps) != 2 || len(res.Sweeps[0].Results) != 2 || len(res.Sweeps[1].Results) != 1 {
		t.Fatalf("results shape = %+v", res)
	}
	if res.Sweeps[0].Results[0].Topology != "mesh" {
		t.Errorf("first result = %+v", res.Sweeps[0].Results[0])
	}

	// CSV results are byte-identical to the local report rendering of
	// the same spec and results — the shrun code path.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + snap.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp, err := spec.Parse([]byte(costSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := sp.ExpandSweeps()
	if err != nil {
		t.Fatal(err)
	}
	var all []*exp.Result
	for _, sw := range res.Sweeps {
		all = append(all, sw.Results...)
	}
	var want strings.Builder
	report.WriteCSV(&want, sp, groups, all)
	if string(gotCSV) != want.String() {
		t.Errorf("CSV mismatch:\n--- service\n%s--- local\n%s", gotCSV, want.String())
	}

	// The list endpoint includes the campaign.
	var list struct {
		Campaigns []serve.CampaignJSON `json:"campaigns"`
	}
	if code := getJSON(t, ts.URL+"/v1/campaigns", &list); code != http.StatusOK || len(list.Campaigns) != 1 {
		t.Errorf("list = %+v (code %d)", list, code)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, stubEval, 1)
	cases := []struct {
		body string
		want int
	}{
		{"{not json", http.StatusBadRequest},
		{`{"name": "x", "sweeps": []}`, http.StatusUnprocessableEntity},
		{`{"name": "x", "sweeps": [{"arch": {"scenario": "a"}, "topologies": [{"kind": "warp-gate"}]}]}`, http.StatusUnprocessableEntity},
		{`{"name": "x", "typo_field": 1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("body %.30q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

func TestResultsBeforeDoneConflicts(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	eval := func(j exp.Job) (*exp.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return stubEval(j)
	}
	srv, ts := newTestServer(t, eval, 1)
	snap := submit(t, ts, costSpecJSON)
	<-started
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+snap.ID+"/results", nil); code != http.StatusConflict {
		t.Errorf("results while running: code %d, want 409", code)
	}
	close(release)
	waitTerminal(t, srv, snap.ID)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	eval := func(j exp.Job) (*exp.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return stubEval(j)
	}
	// One executor: the second submission stays queued behind the
	// first.
	srv, ts := newTestServer(t, eval, 1)
	running := submit(t, ts, costSpecJSON)
	<-started
	queued := submit(t, ts, `{"name": "q", "sweeps": [{"mode": "cost",
		"arch": {"scenario": "b"}, "topologies": [{"kind": "mesh"}]}]}`)

	// Cancel the queued campaign: terminal immediately, never runs.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: code %d", resp.StatusCode)
	}
	if snap := waitTerminal(t, srv, queued.ID); snap.Status != serve.StatusCanceled {
		t.Errorf("queued campaign status = %s, want canceled", snap.Status)
	}
	// Terminal but never ran: the results endpoint must refuse
	// cleanly, not panic on the missing result set.
	for _, q := range []string{"", "?format=csv"} {
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+queued.ID+"/results"+q, nil); code != http.StatusConflict {
			t.Errorf("results%s of never-run campaign: code %d, want 409", q, code)
		}
	}

	// Cancel the running campaign, then release its in-flight job.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	if snap := waitTerminal(t, srv, running.ID); snap.Status != serve.StatusCanceled {
		t.Errorf("running campaign status = %s, want canceled", snap.Status)
	}

	// Canceling a terminal campaign conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel terminal: code %d, want 409", resp.StatusCode)
	}
}

// TestConcurrentSameSpecSharesCache pins the service's core promise:
// two concurrent submissions of the same spec perform the simulation
// work once. The second campaign finishes with zero newly-computed
// jobs — every job is a cache hit or joins the first campaign's
// in-flight evaluation.
func TestConcurrentSameSpecSharesCache(t *testing.T) {
	var evals atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	eval := func(j exp.Job) (*exp.Result, error) {
		evals.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return stubEval(j)
	}
	srv, ts := newTestServer(t, eval, 2)

	first := submit(t, ts, costSpecJSON)
	<-started // the first campaign owns every in-flight job now
	second := submit(t, ts, costSpecJSON)
	if second.SpecHash != first.SpecHash {
		t.Fatalf("spec hashes differ: %s vs %s", first.SpecHash, second.SpecHash)
	}
	close(release)

	a := waitTerminal(t, srv, first.ID)
	b := waitTerminal(t, srv, second.ID)
	if a.Status != serve.StatusDone || b.Status != serve.StatusDone {
		t.Fatalf("statuses: %s / %s", a.Status, b.Status)
	}
	if got := evals.Load(); got != 3 {
		t.Errorf("evaluations = %d, want 3 (the spec's unique jobs, once)", got)
	}
	if b.Progress.Computed != 0 {
		t.Errorf("second campaign computed %d jobs, want 0 (progress %+v)", b.Progress.Computed, b.Progress)
	}
	if b.Progress.Shared+b.Progress.CacheHits != 3 {
		t.Errorf("second campaign shared+cached = %d, want 3 (progress %+v)", b.Progress.Shared+b.Progress.CacheHits, b.Progress)
	}

	// Both campaigns serve identical result bytes.
	csv := func(id string) string {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/results?format=csv")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if csv(first.ID) != csv(second.ID) {
		t.Error("campaigns of the same spec served different CSV bytes")
	}
}

func TestEventsStream(t *testing.T) {
	srv, ts := newTestServer(t, stubEval, 1)
	snap := submit(t, ts, costSpecJSON)
	waitTerminal(t, srv, snap.ID)

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // the stream closes after "done"
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: status") {
		t.Errorf("missing status event:\n%s", text)
	}
	if !strings.Contains(text, "event: done") {
		t.Errorf("missing done event:\n%s", text)
	}
	if !strings.Contains(text, `"status":"done"`) {
		t.Errorf("done event lacks terminal snapshot:\n%s", text)
	}
}

func TestRegistryAndHealth(t *testing.T) {
	_, ts := newTestServer(t, stubEval, 1)
	var reg struct {
		Topologies []struct {
			Kind string `json:"kind"`
		} `json:"topologies"`
		Routings  []string `json:"routings"`
		Patterns  []string `json:"patterns"`
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
	}
	if code := getJSON(t, ts.URL+"/v1/registry", &reg); code != http.StatusOK {
		t.Fatalf("registry code %d", code)
	}
	kinds := map[string]bool{}
	for _, tp := range reg.Topologies {
		kinds[tp.Kind] = true
	}
	for _, want := range []string{"mesh", "sparse-hamming", "ruche"} {
		if !kinds[want] {
			t.Errorf("registry missing topology %q", want)
		}
	}
	if len(reg.Routings) == 0 || len(reg.Patterns) == 0 || len(reg.Scenarios) < 5 {
		t.Errorf("registry incomplete: %+v", reg)
	}

	var health struct {
		Status    string `json:"status"`
		Campaigns int    `json:"campaigns"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %+v (code %d)", health, code)
	}

	if code := getJSON(t, ts.URL+"/v1/campaigns/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: code %d, want 404", code)
	}
}

// TestRouteSummaries keeps the route table self-describing (the API
// doc generator and coverage test rely on non-empty summaries).
func TestRouteSummaries(t *testing.T) {
	srv, _ := newTestServer(t, stubEval, 1)
	for _, rt := range srv.Routes() {
		if rt.Method == "" || rt.Pattern == "" || rt.Summary == "" {
			t.Errorf("route %+v is missing metadata", rt)
		}
		if !strings.HasPrefix(rt.Pattern, "/") {
			t.Errorf("route pattern %q is not absolute", rt.Pattern)
		}
	}
	if fmt.Sprint(len(srv.Routes())) == "0" {
		t.Fatal("no routes registered")
	}
}
