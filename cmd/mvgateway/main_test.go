package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"mvml/internal/signs"
	"mvml/internal/xrand"
)

// TestUsage: a bad invocation exits 2 with the usage on stderr and nothing on
// stdout, before any shard starts; -h exits 0.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"frobnicate"}, 2},
		{[]string{"serve", "-no-such-flag"}, 2},
		{[]string{"loadgen", "-rate"}, 2},
		{[]string{"demo", "-shards", "0", "-duration", "1s"}, 2},
		{[]string{"demo", "-rate", "0"}, 2},
		{[]string{"demo", "-baseline-rps", "100"}, 2},
		{[]string{"loadgen", "-duration", "0s"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"demo", "-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || stdout.Len() != 0 || !strings.Contains(strings.ToLower(stderr.String()), "usage") {
			t.Errorf("mvgateway %v: exit %d, stdout %q, stderr %q; want %d with usage on stderr", c.args, code, stdout.String(), stderr.String(), c.code)
		}
	}
}

// TestBuildFleetHealthIsOptIn: routing reads each shard's own state, so a
// fleet built without telemetry flags runs no health engine, -health gives
// every shard one, and either way the report's gateway counters count.
func TestBuildFleetHealthIsOptIn(t *testing.T) {
	for _, c := range []struct {
		args       []string
		wantEngine bool
	}{
		{nil, false},
		{[]string{"-health"}, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := registerFleetFlags(fs)
		if err := fs.Parse(append([]string{"-shards", "2"}, c.args...)); err != nil {
			t.Fatal(err)
		}
		rt, err := f.tele.Start()
		if err != nil {
			t.Fatal(err)
		}
		rt, gw, shards, err := f.buildFleet(rt)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shards {
			if got := sh.Server().Health() != nil; got != c.wantEngine {
				t.Errorf("%v: shard %s has engine %v, want %v", c.args, sh.ID(), got, c.wantEngine)
			}
		}
		for i := 0; i < 8; i++ {
			img := signs.Render(i%signs.NumClasses, xrand.New(uint64(i)), signs.DefaultConfig())
			if _, _, err := gw.Classify(fmt.Sprintf("k%d", i), "test", img); err != nil {
				t.Fatalf("%v: request %d: %v", c.args, i, err)
			}
		}
		if n := rt.Metrics().Counter("mv_gateway_routed_total").Value(); n == 0 {
			t.Errorf("%v: gateway counted no routed requests", c.args)
		}
		closeFleet(gw, shards)
	}
}
