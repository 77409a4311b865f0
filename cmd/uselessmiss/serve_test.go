package main

import (
	"context"
	"strings"
	"testing"
)

// TestServeSubcommand drives the serve subcommand itself: under an
// already-cancelled context it binds, announces its address, drains at
// once and exits clean; a bad -log level and an unbindable -addr are
// errors.
func TestServeSubcommand(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	if err := runContext(ctx, []string{"serve", "-addr", "127.0.0.1:0"}, &sb); err != nil {
		t.Fatalf("serve under a cancelled context: %v\n%s", err, sb.String())
	}
	out := sb.String()
	listen := strings.Index(out, "listening on http://127.0.0.1:")
	drained := strings.Index(out, "drained clean")
	if listen < 0 || drained < listen {
		t.Errorf("serve output lacks the listen line followed by the drain line:\n%s", out)
	}

	for _, args := range [][]string{
		{"serve", "-addr", "127.0.0.1:0", "-log", "bogus"},
		{"serve", "-addr", "127.0.0.1:-1"},
	} {
		sb.Reset()
		if err := runContext(ctx, args, &sb); err == nil {
			t.Errorf("%v: accepted, want an error\n%s", args, sb.String())
		}
	}
}
