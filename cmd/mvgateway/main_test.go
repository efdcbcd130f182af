package main

import (
	"bytes"
	"strings"
	"testing"
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
