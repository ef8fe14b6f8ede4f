// Command bench is the repository's benchmark: four closed-loop
// workloads over the measurement and generation planes, with
// end-to-end metrics measured untraced and per-layer metrics from a
// separate traced replay. See README.md for how to run and compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"mobiletraffic/internal/mathx"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload, each in a child process")
		seed    = flag.Int64("seed", 1, "workload seed (7 is the holdout seed for claims)")
		seconds = flag.Float64("seconds", 25, "seconds each run measures")
		traceOn = flag.Int("trace", 0, "1 runs the traced replay for the per-layer metrics, 0 the end-to-end run")
		out     = flag.String("out", "", "write the JSON report to this file")
		workdir = flag.String("workdir", ".bench_build/work", "directory for the workloads' scratch files")
		bench   = flag.String("benchmark", "BENCHMARK.json", "benchmark definition, read for the bounds of -compare")
		compare = flag.Bool("compare", false, "compare reports: -compare PARENT.json... -- CHANGE.json...")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareMain(*bench, flag.Args())
	case *name == "":
		err = runAll(*seed, *seconds, *workdir, *out)
	default:
		err = runOne(*name, runOptions{
			seed: *seed, seconds: *seconds, trace: *traceOn == 1, workdir: *workdir, sc: fullScale,
		}, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// contractLine is the last line a single-workload run prints.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runOne(name string, o runOptions, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	rep, err := run(w, o)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	printLines(rep)
	line, err := json.Marshal(contractLine{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// suiteReport is the JSON document of a run over every workload.
type suiteReport struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why      string     `json:"why"`
	Untraced *runReport `json:"untraced"`
	Traced   *runReport `json:"traced"`
}

// runAll runs every workload, untraced and then traced, each run in a
// fresh child process of this binary so no run inherits another's heap.
func runAll(seed int64, seconds float64, workdir, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	suite := &suiteReport{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadReport{}}
	var cals []float64
	for _, w := range workloads {
		wr := &workloadReport{Why: w.why}
		for _, traceOn := range []int{0, 1} {
			tmp := filepath.Join(workdir, fmt.Sprintf("child-%s-%d.json", w.name, traceOn))
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceOn),
				"-workdir", workdir, "-out", tmp)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, traceOn, err)
			}
			rep := &runReport{}
			err := readJSON(tmp, rep)
			os.Remove(tmp)
			if err != nil {
				return err
			}
			printLines(rep)
			if traceOn == 0 {
				wr.Untraced = rep
				suite.Host = rep.Host
				cals = append(cals, rep.Host.CalSP50)
			} else {
				wr.Traced = rep
			}
		}
		suite.Workloads[w.name] = wr
	}
	suite.Host.CalSP50 = mathx.Median(cals)
	if out == "" {
		return nil
	}
	return writeJSON(out, suite)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
