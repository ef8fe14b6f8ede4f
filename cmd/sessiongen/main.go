// Command sessiongen generates synthetic session-level mobile traffic
// traces from the paper's models (§5.4).
//
// It either fits a fresh model set on the bundled measurement
// simulation (default) or loads released parameters from a JSON file
// (-models). The generated trace lists one session per line with its
// establishment time, service, volume, duration and mean throughput.
//
// Examples:
//
//	sessiongen -minutes 60 -class 9 > trace.csv
//	sessiongen -dump-models > params.json
//	sessiongen -models params.json -minutes 1440 -format json > day.json
//	sessiongen -minutes 1440 -format bin > day.mttr
//	sessiongen -minutes 1440 -metrics-addr :9090 > day.csv   # watch /statusz
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mobiletraffic"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sessiongen:", err)
		os.Exit(1)
	}
}

// run parses the command line, then writes the requested trace (or
// model JSON) to stdout and progress notes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sessiongen", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		modelsPath = fs.String("models", "", "load released model parameters from this JSON file (default: fit on the bundled simulation)")
		dumpModels = fs.Bool("dump-models", false, "print the model parameter JSON instead of a trace")
		minutes    = fs.Int("minutes", 60, "minutes of traffic to generate")
		startMin   = fs.Int("start", 8*60, "starting minute of day (determines day/night arrival mode)")
		class      = fs.Int("class", 9, "BS load class (decile index 0-9)")
		seed       = fs.Int64("seed", 1, "random seed")
		format     = fs.String("format", "csv", "output format: csv, json or bin (MTTR columnar binary with embedded summary)")
		fitBS      = fs.Int("fit-bs", 20, "base stations in the fitting simulation")
		fitDays    = fs.Int("fit-days", 3, "days in the fitting simulation")
		workers    = fs.Int("workers", 0, "generate per-day cells on the parallel campaign plane with this many workers (-1 = all CPUs; 0 = the serial single-stream path)")
		mAddr      = fs.String("metrics-addr", "", "serve /metrics, /statusz, /events and /debug/pprof on this address (e.g. :9090)")
	)
	fs.Parse(args)

	// The registry must be installed before the models are fitted or
	// the generator built: components cache their metric handles at
	// construction.
	if *mAddr != "" {
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		addr, err := obs.Serve(*mAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "metrics: serving /metrics, /statusz and /debug/pprof on %s\n", addr)
	}

	var set *mobiletraffic.ModelSet
	if *modelsPath != "" {
		f, err := os.Open(*modelsPath)
		if err != nil {
			return err
		}
		set, err = mobiletraffic.LoadModels(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stderr, "fitting models on the bundled measurement simulation...")
		var err error
		set, err = mobiletraffic.FitFromSimulation(mobiletraffic.SimulationConfig{
			NumBS: *fitBS, Days: *fitDays, Seed: *seed,
		})
		if err != nil {
			return err
		}
	}

	if *dumpModels {
		return mobiletraffic.SaveModels(set, stdout)
	}

	gen, err := mobiletraffic.NewGenerator(set, *seed)
	if err != nil {
		return err
	}
	if *class < 0 || *class >= len(set.Arrivals) {
		return fmt.Errorf("class %d out of range [0, %d)", *class, len(set.Arrivals))
	}

	tf, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(stdout, tf)
	if err != nil {
		return err
	}
	// Each generated minute is one unit on /statusz: a long generation
	// run reports completion fraction and ETA like a campaign does.
	progress := obs.NewProgress("sessiongen_minutes", *minutes)
	obs.TrackProgressOf(progress)
	start := time.Now()
	if *workers != 0 {
		// Parallel campaign plane: whole days generated concurrently
		// from per-(class, day) substreams, emitted in order and
		// truncated to the requested minutes. Output depends only on
		// (seed, class, minutes), never on the worker count. Session
		// start times come from the sampled within-minute offsets, and
		// the day/night mode is drawn against the diurnal phase profile
		// (the transition-aware choice of the experiment drivers) rather
		// than the serial path's hard day/night switch. The fold hands
		// each day block to the writer as it completes and recycles its
		// backing arrays for a later day, so an arbitrarily long run
		// keeps O(workers) days in memory and allocates nothing per day
		// in steady state (TestGenerateCampaignFoldSteadyStateAllocs).
		pw := *workers
		if pw < 0 {
			pw = 0 // CampaignSpec: <= 0 means all CPUs
		}
		days := (*minutes + 24*60 - 1) / (24 * 60)
		err := gen.GenerateCampaignFold(mobiletraffic.CampaignSpec{
			Arrivals:    []*mobiletraffic.ArrivalModel{set.Arrivals[*class]},
			Keys:        []uint64{uint64(*class)},
			Days:        days,
			StartMinute: *startMin,
			Workers:     pw,
		}, func(blk *mobiletraffic.DayBlock) error {
			for m := 0; m < 24*60; m++ {
				gm := blk.Day*24*60 + m
				if gm >= *minutes {
					break
				}
				progress.Start(gm)
				lo, hi := blk.MinuteRange(m)
				for i := lo; i < hi; i++ {
					err := w.Write(trace.Record{
						TimeS:      float64(blk.Day)*86400 + blk.Start[i],
						Service:    set.Services[blk.Svc[i]].Name,
						Bytes:      blk.Volume[i],
						DurationS:  blk.Duration[i],
						Throughput: blk.Volume[i] / blk.Duration[i],
					})
					if err != nil {
						return err
					}
				}
				progress.Done(gm)
			}
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		sessionsCtr := obs.CounterOf("gen_sessions_total")
		minutesCtr := obs.CounterOf("gen_minutes_total")
		for m := 0; m < *minutes; m++ {
			progress.Start(m)
			minuteOfDay := (*startMin + m) % (24 * 60)
			peak := netsim.IsDaytime(minuteOfDay)
			sessions, err := gen.Minute(*class, peak)
			if err != nil {
				return err
			}
			for i, s := range sessions {
				err := w.Write(trace.Record{
					TimeS:      float64(m)*60 + float64(i)*60/float64(len(sessions)+1),
					Service:    s.Service,
					Bytes:      s.Volume,
					DurationS:  s.Duration,
					Throughput: s.Throughput,
				})
				if err != nil {
					return err
				}
			}
			sessionsCtr.Add(int64(len(sessions)))
			minutesCtr.Inc()
			progress.Done(m)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(w.Count()) / elapsed.Seconds()
	fmt.Fprintf(stderr, "generated %d sessions over %d minutes (class %d) in %v (%.0f sessions/s)\n",
		w.Count(), *minutes, *class, elapsed.Round(time.Millisecond), rate)
	return nil
}
