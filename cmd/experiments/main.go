// Command experiments regenerates every table and figure of the paper's
// evaluation from a simulated measurement campaign.
//
// Usage:
//
//	experiments [flags] [experiment...]
//
// With no arguments it runs every experiment. Known experiments:
// fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 quality table1 table2 fig12
// fig13 ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/obs"
)

func main() {
	var (
		numBS    = flag.Int("bs", 40, "number of simulated base stations")
		days     = flag.Int("days", 7, "number of simulated days (day 0 = Monday)")
		seed     = flag.Int64("seed", 1, "master random seed")
		moveProb = flag.Float64("moveprob", 0.25, "share of transient (mobility-truncated) sessions; negative disables mobility")
		antennas = flag.Int("antennas", 10, "antennas in the slicing study (table2/fig12)")
		slDays   = flag.Int("slicing-days", 7, "days in the slicing study")
		ess      = flag.Int("ess", 16, "far edge sites in the vRAN study (fig13)")
		rus      = flag.Int("rus", 5, "radio units per edge site in the vRAN study")
		hours    = flag.Int("hours", 4, "emulated hours in the vRAN study")
		format   = flag.String("format", "table", "output format: table or csv")
		verbose  = flag.Bool("v", false, "print per-experiment timing and stage-span summaries to stderr")
		mAddr    = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /statusz, /events, /spans, /trace and /debug/pprof on this address (e.g. :9090)")
		mHold    = flag.Bool("metrics-hold", false, "after the run, keep serving -metrics-addr until interrupted")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	switch *format {
	case "table":
	case "csv":
		asCSV = true
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	// Instrumentation must be installed before the pipeline components
	// are constructed: metric handles are resolved once at construction
	// and stay no-ops if the registry appears later.
	var reg *obs.Registry
	if *verbose || *mAddr != "" || *cpuProf != "" || *memProf != "" {
		reg = obs.NewRegistry()
		obs.SetDefault(reg)
	}
	if *mAddr != "" {
		addr, err := obs.Serve(*mAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics and /debug/pprof on %s\n", addr)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		atExit(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProf != "" {
		path := *memProf
		atExit(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		})
	}
	defer runExitHooks()

	want := flag.Args()
	if len(want) == 0 {
		want = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
			"fig10", "quality", "table1", "table2", "fig12", "fig13", "ablations",
			"applayer", "stability", "fidelity", "diurnal", "drift", "chaos",
			"killresume"}
	}

	fmt.Fprintf(os.Stderr, "building environment (%d BSs x %d days, seed %d)...\n", *numBS, *days, *seed)
	envStart := time.Now()
	env, err := experiments.NewEnv(experiments.Config{
		NumBS: *numBS, Days: *days, Seed: *seed, MoveProb: *moveProb,
	})
	if err != nil {
		fatal(err)
	}
	if *verbose {
		line := fmt.Sprintf("environment: %s", time.Since(envStart).Round(time.Millisecond))
		if reg != nil {
			line += " [spans: " + obs.FormatSpanTotals(obs.SummarizeSpans(reg.SpanRecords())) + "]"
		}
		fmt.Fprintln(os.Stderr, line)
	}
	fmt.Fprintf(os.Stderr, "modeled %d services\n\n", len(env.Models.Services))

	slCfg := experiments.SlicingConfig{Antennas: *antennas, Days: *slDays, Seed: *seed}
	vrCfg := experiments.VRANConfig{ESs: *ess, RUsPerES: *rus, Hours: *hours, Seed: *seed}

	for _, name := range want {
		expStart := time.Now()
		spansBefore := 0
		if reg != nil {
			spansBefore = len(reg.SpanRecords())
		}
		switch strings.ToLower(name) {
		case "fig3":
			r, err := experiments.ExpFig3(env)
			render(r, err)
		case "fig4":
			r, err := experiments.ExpFig4(env)
			render(r, err)
		case "fig5":
			r, err := experiments.ExpFig5(env)
			render(r, err)
		case "fig6":
			r, err := experiments.ExpFig6(env)
			render(r, err)
		case "fig7":
			r, err := experiments.ExpFig7(env)
			render(r, err)
		case "fig8":
			r, err := experiments.ExpFig8(env)
			render(r, err)
		case "fig9":
			r, err := experiments.ExpFig9(env, "")
			render(r, err)
		case "fig10":
			r, err := experiments.ExpFig10(env)
			render(r, err)
		case "quality", "fig11":
			r, err := experiments.ExpQuality(env)
			render(r, err)
		case "table1":
			r, err := experiments.ExpTable1(env)
			render(r, err)
		case "table2":
			r, err := experiments.ExpTable2(env, slCfg)
			render(r, err)
		case "fig12":
			r, err := experiments.ExpFig12(env, slCfg)
			render(r, err)
		case "fig13":
			r, err := experiments.ExpFig13(env, vrCfg)
			if err != nil {
				fatal(err)
			}
			render13 := func(t *experiments.Table) {
				if asCSV {
					fmt.Print(t.CSV())
					fmt.Println()
					return
				}
				fmt.Println(t.Render())
			}
			render13(r.Table())
			render13(r.Fig13cTable())
		case "applayer":
			r, err := experiments.ExpAppLayer(env, 0)
			render(r, err)
		case "stability":
			r, err := experiments.ExpStability(env)
			render(r, err)
		case "fidelity":
			r, err := experiments.ExpFidelity(env, nil, 0)
			render(r, err)
		case "diurnal":
			r, err := experiments.ExpDiurnal(env)
			render(r, err)
		case "drift":
			r, err := experiments.ExpDrift(env)
			render(r, err)
		case "chaos":
			r, err := experiments.ExpChaos(env, experiments.ChaosConfig{})
			render(r, err)
		case "killresume":
			r, err := experiments.ExpKillResume(env, experiments.KillResumeConfig{})
			render(r, err)
		case "ablations":
			for _, run := range []func(*experiments.Env) (*experiments.AblationResult, error){
				experiments.ExpAblationPeakCap,
				experiments.ExpAblationSmoothing,
				experiments.ExpAblationDurationFamily,
				experiments.ExpAblationArrivalFit,
			} {
				r, err := run(env)
				render(r, err)
			}
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
		if *verbose {
			line := fmt.Sprintf("%s: %s", strings.ToLower(name), time.Since(expStart).Round(time.Millisecond))
			if reg != nil {
				recs := reg.SpanRecords()
				line += " [spans: " + obs.FormatSpanTotals(obs.SummarizeSpans(recs[spansBefore:])) + "]"
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if *mAddr != "" && *mHold {
		fmt.Fprintf(os.Stderr, "metrics: run finished, holding %s open (ctrl-c to exit)\n", *mAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

// exitHooks are cleanups (profile flushes) that must run even when the
// process exits through fatal(), which bypasses deferred calls.
var exitHooks []func()

func atExit(f func()) { exitHooks = append(exitHooks, f) }

func runExitHooks() {
	for i := len(exitHooks) - 1; i >= 0; i-- {
		exitHooks[i]()
	}
	exitHooks = nil
}

// tabler is any experiment result that renders as a Table.
type tabler interface{ Table() *experiments.Table }

// asCSV is set from the -format flag before experiments run.
var asCSV bool

func render(r tabler, err error) {
	if err != nil {
		fatal(err)
	}
	if asCSV {
		fmt.Print(r.Table().CSV())
		fmt.Println()
		return
	}
	fmt.Println(r.Table().Render())
}

func fatal(err error) {
	runExitHooks()
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
