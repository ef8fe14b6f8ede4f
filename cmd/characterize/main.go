// Command characterize runs the measurement pipeline of paper §3-§4 on
// a simulated campaign and emits plot-ready CSV series: per-service
// traffic volume PDFs over log10(bytes), duration-volume pairs, and the
// per-minute arrival count histograms per BS load decile.
//
// Output sections are separated by lines starting with '#'.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mobiletraffic/internal/campaign"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
)

func main() {
	var (
		numBS    = flag.Int("bs", 40, "number of simulated base stations")
		days     = flag.Int("days", 7, "number of simulated days")
		seed     = flag.Int64("seed", 1, "master random seed")
		services = flag.String("services", "Netflix,Twitch,Deezer,Amazon,Pokemon GO,Waze",
			"comma-separated services to characterize")
		deciles = flag.String("deciles", "0,3,6,9", "comma-separated BS load deciles for arrival PDFs")
		mAddr   = flag.String("metrics-addr", "", "serve /metrics, /statusz, /events, /spans and /debug/pprof on this address (e.g. :9090)")

		// Fault-tolerant sharded campaign (internal/campaign). Any of
		// -shards/-checkpoint-dir/-resume selects the supervised path.
		shards  = flag.Int("shards", 0, "split the campaign into this many supervised BS-range shards (0 = in-process collection; -checkpoint-dir or -resume implies one shard per CPU)")
		workers = flag.Int("workers", 0, "bound concurrent shard attempts (0 = one per CPU)")
		ckptDir = flag.String("checkpoint-dir", "", "write crash-safe per-shard checkpoints and a campaign manifest into this directory")
		resume  = flag.Bool("resume", false, "load completed shard checkpoints from -checkpoint-dir instead of recomputing them")
		shardTO = flag.Duration("shard-timeout", 0, "abort and retry a shard attempt running longer than this (0 = no timeout)")
		retries = flag.Int("max-retries", 2, "per-shard retry budget after the first attempt; an exhausted shard degrades the campaign instead of failing it")
		stallTO = flag.Duration("stall-after", 0, "flag a shard as stalled (flight-recorder event + campaign_shards_stalled_total) when its heartbeat goes quiet this long (0 = off)")
		mdlOut  = flag.String("model-out", "", "write the fitted ModelSet JSON to this file")

		// Chaos knobs: process-level fault injection into shard workers,
		// for supervisor testing and the CI kill/resume job.
		faultSlow  = flag.Duration("fault-slow-shard", 0, "chaos: add this latency to every shard attempt (slow-worker fault; stretches the campaign so an external SIGKILL lands mid-run)")
		faultCrash = flag.Int("fault-crash-shard", -1, "chaos: panic the first attempt of this shard index (exercises supervised retry)")
	)
	flag.Parse()

	// The registry must be installed before NewEnv builds the pipeline:
	// components cache their metric handles at construction.
	if *mAddr != "" {
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		addr, err := obs.Serve(*mAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics, /statusz and /debug/pprof on %s\n", addr)
	}

	cfg := experiments.Config{NumBS: *numBS, Days: *days, Seed: *seed}
	sharded := *shards > 0 || *ckptDir != "" || *resume
	var env *experiments.Env
	var err error
	if sharded {
		// SIGINT/SIGTERM no longer kill the campaign outright: the
		// context cancels, in-flight shards stop, and the supervisor
		// writes the final manifest so completed shards' checkpoints
		// are picked up by a -resume run.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		opts := experiments.CampaignOptions{
			Shards:        *shards,
			Workers:       *workers,
			CheckpointDir: *ckptDir,
			Resume:        *resume,
			ShardTimeout:  *shardTO,
			MaxRetries:    *retries,
			StallAfter:    *stallTO,
		}
		if *faultSlow > 0 || *faultCrash >= 0 {
			pc := faults.ProcessConfig{SlowShardDelay: *faultSlow}
			if *faultCrash >= 0 {
				pc.CrashShard = *faultCrash
				pc.CrashAttempts = 1
			}
			proc, err := faults.NewProcess(pc)
			if err != nil {
				fatal(err)
			}
			opts.Process = proc
		}
		fmt.Fprintf(os.Stderr, "building environment (%d BSs x %d days, sharded campaign)...\n", *numBS, *days)
		var report *campaign.Report
		env, report, err = experiments.NewEnvSharded(ctx, cfg, opts)
		if report != nil {
			fmt.Fprintln(os.Stderr, report.Summary())
		}
		if err != nil {
			if errors.Is(err, campaign.ErrInterrupted) {
				fmt.Fprintf(os.Stderr, "characterize: interrupted; completed shards are checkpointed under %s — re-run with -resume to continue\n", *ckptDir)
				os.Exit(130)
			}
			fatal(err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "building environment (%d BSs x %d days)...\n", *numBS, *days)
		env, err = experiments.NewEnv(cfg)
		if err != nil {
			fatal(err)
		}
	}

	if *mdlOut != "" {
		data, err := env.Models.ToJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*mdlOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote model set (%d services) to %s\n", len(env.Models.Services), *mdlOut)
	}

	// Per-service volume PDFs and duration-volume pairs.
	for _, name := range strings.Split(*services, ",") {
		name = strings.TrimSpace(name)
		svc := -1
		for i, p := range env.Catalog {
			if p.Name == name {
				svc = i
				break
			}
		}
		if svc < 0 {
			fatal(fmt.Errorf("unknown service %q", name))
		}
		h, weight, err := env.AggregateVolume(svc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# volume_pdf service=%q sessions=%.0f (columns: log10_bytes,probability)\n", name, weight)
		centers := h.Centers()
		for i, c := range centers {
			if h.P[i] > 0 {
				fmt.Printf("%.3f,%.6g\n", c, h.P[i])
			}
		}
		values, counts, err := env.AggregatePairs(svc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# duration_volume_pairs service=%q (columns: duration_s,mean_bytes,sessions)\n", name)
		durations := env.Coll.DurationCenters()
		for i := range values {
			if !math.IsNaN(values[i]) && counts[i] > 0 {
				fmt.Printf("%.2f,%.6g,%.0f\n", durations[i], values[i], counts[i])
			}
		}
	}

	// Arrival count histograms per requested decile.
	for _, d := range strings.Split(*deciles, ",") {
		var decile int
		if _, err := fmt.Sscanf(strings.TrimSpace(d), "%d", &decile); err != nil || decile < 0 || decile > 9 {
			fatal(fmt.Errorf("bad decile %q", d))
		}
		filter := probe.BSIn(env.Topo.ByDecile(decile))
		peak := env.Coll.MinuteCountSamples(filter, netsim.IsPeakMinute)
		off := env.Coll.MinuteCountSamples(filter, netsim.IsOffPeakMinute)
		m := env.Arrivals[decile]
		fmt.Printf("# arrivals decile=%d peak_mu=%.3f peak_sigma=%.3f pareto_scale=%.3f pareto_shape=%.3f (columns: phase,sessions_per_minute,count)\n",
			decile+1, m.PeakMu, m.PeakSigma, m.OffScale, m.OffShape)
		emitCounts := func(phase string, samples []float64) {
			hist := map[int]int{}
			for _, s := range samples {
				hist[int(s)]++
			}
			max := 0
			for k := range hist {
				if k > max {
					max = k
				}
			}
			for k := 0; k <= max; k++ {
				if hist[k] > 0 {
					fmt.Printf("%s,%d,%d\n", phase, k, hist[k])
				}
			}
		}
		emitCounts("peak", peak)
		emitCounts("offpeak", off)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(1)
}
