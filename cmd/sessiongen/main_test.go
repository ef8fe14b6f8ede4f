package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"
)

// TestDefaultOutputDigest pins the default CSV output of both
// generation paths — the serial single-stream path and the -workers
// campaign plane — for a fixed seed and a small fitting simulation.
// The digests were recorded before generator v1 was retired.
func TestDefaultOutputDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model set")
	}
	base := []string{"-seed", "3", "-minutes", "90", "-fit-bs", "10", "-fit-days", "1"}
	for _, tc := range []struct {
		name  string
		extra []string
		want  string
	}{
		{"serial", nil, "fbe336cfb336c9f8d721c2da56d03049c9b1650c8d82c68ff66e52c8c95d4f1d"},
		{"workers", []string{"-workers", "2"}, "a95dfb966f8a1ac0f95e108600c41ff7e770739d0dab71582903abaa61c6f89e"},
	} {
		var out bytes.Buffer
		if err := run(append(append([]string{}, base...), tc.extra...), &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", tc.name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != tc.want {
			t.Errorf("%s output digest = %s, want %s (%d bytes)", tc.name, got, tc.want, out.Len())
		}
	}
}
