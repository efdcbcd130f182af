package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mvml/internal/obs"
	"mvml/internal/signs"
)

func TestParseIndexList(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
		bad  bool
	}{
		{in: ""},
		{in: "1", want: []int{1}},
		{in: "0, 2", want: []int{0, 2}},
		{in: "-1", want: []int{-1}}, // a range error: Config.Validate rejects it
		{in: "1,x", bad: true},
		{in: ",", bad: true},
	} {
		got, err := parseIndexList(c.in)
		if c.bad != (err != nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseIndexList(%q) = %v, %v; want %v (error: %v)", c.in, got, err, c.want, c.bad)
		}
	}
}

// TestUsage: a bad invocation exits 2 with the usage on stderr and nothing on
// stdout, before any shard starts; -h exits 0.
// usageCase is one command line and the exit code it must end with, having
// printed usage to stderr and nothing to stdout.
type usageCase struct {
	args []string
	code int
}

func checkUsage(t *testing.T, cases []usageCase) {
	t.Helper()
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || stdout.Len() != 0 || !strings.Contains(strings.ToLower(stderr.String()), "usage") {
			t.Errorf("mvserve %v: exit %d, stdout %q, stderr %q; want %d with usage on stderr", c.args, code, stdout.String(), stderr.String(), c.code)
		}
	}
}

func TestUsage(t *testing.T) {
	checkUsage(t, []usageCase{
		{nil, 2},
		{[]string{"frobnicate"}, 2},
		{[]string{"serve", "-no-such-flag"}, 2},
		{[]string{"demo", "-int8-versions", "1,x"}, 2},
		{[]string{"serve", "-int8-versions", ","}, 2},
		{[]string{"demo", "-duration", "0s"}, 2},
		{[]string{"demo", "-rate", "0"}, 2},
		{[]string{"loadgen", "-duration", "0s"}, 2},
		{[]string{"loadgen", "-rate"}, 2},
		// A run owed no request (rate × duration < 1) would pass without
		// ever reaching its mid-run faults.
		{[]string{"demo", "-rate", "0.5", "-duration", "1s"}, 2},
		{[]string{"loadgen", "-rate", "0.5", "-duration", "1s"}, 2},
		{[]string{"demo", "-full-models"}, 2},
		// A config serve.Config.Validate refuses is a usage error, caught
		// before telemetry or any shard starts.
		{[]string{"demo", "-train-epochs", "-1", "-duration", "1s"}, 2},
		{[]string{"serve", "-versions", "0"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"demo", "-h"}, 0},
	})
}

// TestUsageFleet: the -shards flag and the gateway's bounds are checked as
// strictly as the single-server flags.
func TestUsageFleet(t *testing.T) {
	checkUsage(t, []usageCase{
		{[]string{"serve", "-shards", "4", "-no-such-flag"}, 2},
		{[]string{"demo", "-shards", "4", "-rate", "0"}, 2},
		{[]string{"demo", "-shards", "4", "-baseline-rps", "100"}, 2},
		// A fleet needs a shard, and the gateway's bounds need a gateway.
		{[]string{"demo", "-shards", "0", "-duration", "1s"}, 2},
		{[]string{"serve", "-shards", "0"}, 2},
		{[]string{"demo", "-shards", "1", "-max-inflight", "8"}, 2},
		{[]string{"serve", "-retry-burst", "5"}, 2},
		{[]string{"demo", "-shards", "4", "-versions", "0", "-duration", "1s"}, 2},
		{[]string{"demo", "-shards", "4", "-batch", "0", "-duration", "1s"}, 2},
		{[]string{"demo", "-shards", "4", "-h"}, 0},
	})
}

// buildTestFleet parses args as serve's flags would and builds the fleet on
// the telemetry runtime they ask for, or on a local one as the demo does; the
// fleet closes with the test.
func buildTestFleet(t *testing.T, args ...string) *fleet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := serveFlags(fs)
	if err := f.parse(fs, args, io.Discard); err != nil {
		t.Fatal(err)
	}
	rt, err := f.tele.Start()
	if err != nil {
		t.Fatal(err)
	}
	if rt == nil {
		rt = obs.NewRuntime(0)
	}
	fl, err := f.buildFleet(rt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.close)
	return fl
}

// TestBuildFleetHealthIsOptIn: routing reads each shard's own state, so a
// fleet built without telemetry flags runs no health engine, -health gives
// every shard one, and either way the report's counters count. One shard is
// served unlabelled on its own API; two sit behind the gateway's, whose admin
// bodies name a shard.
func TestBuildFleetHealthIsOptIn(t *testing.T) {
	for _, c := range []struct {
		args       []string
		wantEngine bool
	}{
		{nil, false},
		{[]string{"-health"}, true},
	} {
		for _, shards := range []string{"1", "2"} {
			args := append([]string{"-fast-models", "-shards", shards}, c.args...)
			fl := buildTestFleet(t, args...)
			for i, s := range fl.shards {
				if got := s.Health() != nil; got != c.wantEngine {
					t.Errorf("%v: shard %d has engine %v, want %v", args, i, got, c.wantEngine)
				}
				want := fmt.Sprintf("shard-%d", i)
				if fl.gw == nil {
					want = ""
				}
				if s.ShardLabel() != want {
					t.Errorf("%v: shard %d labelled %q, want %q", args, i, s.ShardLabel(), want)
				}
			}
			if (fl.gw != nil) != (shards != "1") {
				t.Errorf("%v: gateway %v", args, fl.gw != nil)
			}
			ts := httptest.NewServer(fl.handler)
			for i := 0; i < 8; i++ {
				body := fmt.Sprintf(`{"class":%d,"seed":%d}`, i%signs.NumClasses, i)
				if code, _ := post(t, ts.URL+"/v1/classify", body); code != http.StatusOK {
					t.Fatalf("%v: request %d answered %d", args, i, code)
				}
			}
			// The shard's admin API takes a bare version and the gateway's a
			// shard-addressed one; each answers with its own status body.
			compromise, answer := `{"version":0}`, `{"status":"compromised"}`
			if fl.gw != nil {
				compromise, answer = `{"shard":"shard-0","version":0}`, `{"status":"ok"}`
				if code, _ := post(t, ts.URL+"/admin/compromise", `{"version":0}`); code != http.StatusNotFound {
					t.Errorf("%v: gateway took an unaddressed compromise: %d", args, code)
				}
			}
			if code, got := post(t, ts.URL+"/admin/compromise", compromise); code != http.StatusOK || got != answer {
				t.Errorf("%v: /admin/compromise %s answered %d %s, want 200 %s", args, compromise, code, got, answer)
			}
			ts.Close()
			if n := fl.rt.Metrics().Counter("mv_gateway_routed_total").Value(); (n > 0) != (fl.gw != nil) {
				t.Errorf("%v: gateway counted %d routed requests", args, n)
			}
		}
	}
}

// post sends body to url and returns the status and the trimmed answer.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(got))
}

// TestDemoReportsAtEveryFleetSize: every demo prints its rejuvenations and
// degraded answers, telemetry on or off; a fleet also prints its gateway and
// fleet lines and must have rerouted around the drained shard.
func TestDemoReportsAtEveryFleetSize(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-rate", "100", "-duration", "300ms"}, nil},
		{[]string{"-shards", "2", "-rate", "200", "-duration", "1s"}, []string{"gateway: ", "fleet: 2 shards live"}},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"demo", "-fast-models"}, c.args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("mvserve %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
		}
		for _, want := range append(c.want, "proactive; degraded answers: ", "demo passed: ") {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("mvserve %v: stdout lacks %q:\n%s", args, want, stdout.String())
			}
		}
	}
}
