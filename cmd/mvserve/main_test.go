package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
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
// stdout, before any server starts; -h exits 0.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"frobnicate"}, 2},
		{[]string{"serve", "-no-such-flag"}, 2},
		{[]string{"demo", "-int8-versions", "1,x"}, 2},
		{[]string{"serve", "-int8-versions", ","}, 2},
		{[]string{"demo", "-duration", "0s"}, 2},
		{[]string{"demo", "-rate", "0"}, 2},
		{[]string{"loadgen", "-duration", "0s"}, 2},
		// A config serve.Config.Validate refuses is a usage error, caught
		// before telemetry or the server starts.
		{[]string{"demo", "-train-epochs", "-1", "-duration", "1s"}, 2},
		{[]string{"serve", "-versions", "0"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"demo", "-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || stdout.Len() != 0 || !strings.Contains(strings.ToLower(stderr.String()), "usage") {
			t.Errorf("mvserve %v: exit %d, stdout %q, stderr %q; want %d with usage on stderr", c.args, code, stdout.String(), stderr.String(), c.code)
		}
	}
}
