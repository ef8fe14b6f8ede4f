package faults

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestProcessAttempt(t *testing.T) {
	ctx := context.Background()

	t.Run("nil-receiver", func(t *testing.T) {
		var p *ProcessFaults
		if err := p.Attempt(ctx, 0, 1); err != nil {
			t.Fatalf("nil injector: %v", err)
		}
	})
	t.Run("inert", func(t *testing.T) {
		p, err := NewProcess(ProcessConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for shard := 0; shard < 4; shard++ {
			if err := p.Attempt(ctx, shard, 1); err != nil {
				t.Fatalf("zero config injected a fault on shard %d: %v", shard, err)
			}
		}
	})
	t.Run("crash", func(t *testing.T) {
		p, err := NewProcess(ProcessConfig{CrashShard: 1, CrashAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		panicked := func(shard, attempt int) (p2 bool) {
			defer func() { p2 = recover() != nil }()
			p.Attempt(ctx, shard, attempt)
			return
		}
		if !panicked(1, 1) {
			t.Fatal("target shard's first attempt must panic")
		}
		if panicked(1, 2) {
			t.Fatal("retry past CrashAttempts must not panic")
		}
		if panicked(0, 1) || panicked(2, 1) {
			t.Fatal("non-target shards must not panic")
		}
	})
	t.Run("hang", func(t *testing.T) {
		p, err := NewProcess(ProcessConfig{HangShard: 0, HangAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		// start precedes the deadline's clock, so a slow scheduler
		// between the two cannot make a full hang look short.
		start := time.Now()
		hctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		defer cancel()
		err = p.Attempt(hctx, 0, 1)
		if err == nil || !strings.Contains(err.Error(), "hang") {
			t.Fatalf("hang: err = %v", err)
		}
		if time.Since(start) < 10*time.Millisecond {
			t.Fatal("hang returned before ctx cancellation")
		}
		if err := p.Attempt(ctx, 0, 2); err != nil {
			t.Fatalf("retry past HangAttempts: %v", err)
		}
	})
	t.Run("fail-from", func(t *testing.T) {
		p, err := NewProcess(ProcessConfig{FailFromShard: 2})
		if err != nil {
			t.Fatal(err)
		}
		for attempt := 1; attempt <= 3; attempt++ {
			if err := p.Attempt(ctx, 2, attempt); err == nil {
				t.Fatalf("shard at the cut must fail permanently (attempt %d)", attempt)
			}
			if err := p.Attempt(ctx, 3, attempt); err == nil {
				t.Fatalf("shard past the cut must fail permanently (attempt %d)", attempt)
			}
		}
		if err := p.Attempt(ctx, 1, 1); err != nil {
			t.Fatalf("shard below the cut: %v", err)
		}
	})
	t.Run("slow", func(t *testing.T) {
		p, err := NewProcess(ProcessConfig{SlowShardDelay: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := p.Attempt(ctx, 0, 1); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) < 5*time.Millisecond {
			t.Fatal("slow-worker delay did not apply")
		}
		// A canceled context frees a slowed attempt early.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		p2, _ := NewProcess(ProcessConfig{SlowShardDelay: time.Hour})
		if err := p2.Attempt(cctx, 0, 1); err == nil {
			t.Fatal("canceled slow attempt must return the ctx error")
		}
	})
	t.Run("validation", func(t *testing.T) {
		if _, err := NewProcess(ProcessConfig{CrashAttempts: -1}); err == nil {
			t.Fatal("negative crash attempts must error")
		}
		if _, err := NewProcess(ProcessConfig{HangAttempts: -1}); err == nil {
			t.Fatal("negative hang attempts must error")
		}
		if _, err := NewProcess(ProcessConfig{SlowShardDelay: -time.Second}); err == nil {
			t.Fatal("negative slow delay must error")
		}
	})
}
