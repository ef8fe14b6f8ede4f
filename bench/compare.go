package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"mobiletraffic/internal/mathx"
)

// benchmarkDef is the part of BENCHMARK.json a comparison reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of a comparison, per (metric, workload).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// Claim rule of a gain: at least minPairs alternating pairs, and the
// change winning at least winShare of them.
const (
	minPairs = 10
	winShare = 0.9
)

// compareMain compares suite reports of a parent commit with those of a
// change. The i-th report of each side form a pair, so runs should
// alternate which side goes first.
func compareMain(benchPath string, args []string) error {
	var parentFiles, changeFiles []string
	for i, a := range args {
		if a == "--" {
			parentFiles, changeFiles = args[:i], args[i+1:]
		}
	}
	if len(parentFiles) == 0 || len(changeFiles) == 0 {
		return errors.New("usage: -compare PARENT.json... -- CHANGE.json...")
	}
	var def benchmarkDef
	if err := readJSON(benchPath, &def); err != nil {
		return err
	}
	parents, err := loadSuites(parentFiles)
	if err != nil {
		return err
	}
	changes, err := loadSuites(changeFiles)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent p50 [p25, p75]\tchange p50 [p25, p75]\twins\tverdict")
	verdicts := map[string]map[string][]string{}
	for _, w := range workloads {
		verdicts[w.name] = map[string][]string{}
	}
	for _, r := range compareSuites(def, parents, changes) {
		verdicts[r.workload][r.verdict] = append(verdicts[r.workload][r.verdict], r.metric)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", r.workload, r.metric, quartiles(r.parent), quartiles(r.change), r.wins, r.pairs, r.verdict)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "workload\tfailed parent\tfailed change\timproved\tunchanged\tworse\tunresolved")
	for _, w := range workloads {
		v := verdicts[w.name]
		pf, pa := failures(parents, w.name)
		cf, ca := failures(changes, w.name)
		fmt.Fprintf(tw, "%s\t%d/%d\t%d/%d\t%s\t%s\t%s\t%s\n", w.name, pf, pa, cf, ca,
			list(v[improved]), list(v[unchanged]), list(v[worse]), list(v[unresolved]))
	}
	return tw.Flush()
}

// verdictRow is the comparison of one end-to-end metric on one workload.
type verdictRow struct {
	workload, metric string
	parent, change   []float64
	wins, pairs      int
	verdict          string
}

// compareSuites judges every (workload, end-to-end metric) both sides
// report. A workload on which the change fails a larger share of its
// operations than the parent is worse on every metric: its timings
// leave out the failed operations, so they could read as a gain.
func compareSuites(def benchmarkDef, parents, changes []*suiteReport) []verdictRow {
	var rows []verdictRow
	for _, w := range workloads {
		pf, pa := failures(parents, w.name)
		cf, ca := failures(changes, w.name)
		moreFailures := ca > 0 && pa > 0 && float64(cf)/float64(ca) > float64(pf)/float64(pa)
		for _, m := range def.EndToEnd {
			p := metricValues(parents, w.name, m.Name)
			c := metricValues(changes, w.name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			r := verdictRow{workload: w.name, metric: m.Name, parent: p, change: c}
			r.verdict, r.wins, r.pairs = judge(p, c, m.Bound, m.Better == "lower")
			if moreFailures {
				r.verdict = worse
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// failures sums a workload's failed and attempted operations over
// reports, traced runs included: a replay that drifts from its operation
// is a failure too.
func failures(suites []*suiteReport, workload string) (failed, attempted int) {
	for _, s := range suites {
		wr, ok := s.Workloads[workload]
		if !ok {
			continue
		}
		for _, r := range []*runReport{wr.Untraced, wr.Traced} {
			if r != nil {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
	}
	return failed, attempted
}

// judge applies the claim rule to one (metric, workload). A gain needs
// at least minPairs pairs, a win in winShare of them (ties count for
// neither) and a median gap larger than the parent's interquartile
// range. Otherwise the change is worse when its median is worse than
// the parent's by more than bound (a share of the parent's median); when
// the runs spread wider than the bound the metric is unresolved, unless
// every change run beats every parent run.
func judge(parent, change []float64, bound float64, lowerBetter bool) (verdict string, wins, pairs int) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := mathx.Median(parent), mathx.Median(change)
	iqr := mathx.Quantile(parent, 0.75) - mathx.Quantile(parent, 0.25)
	if pairs >= minPairs && float64(wins) >= winShare*float64(pairs) && better(mc, mp) && math.Abs(mc-mp) > iqr {
		return improved, wins, pairs
	}
	spread := math.Max(iqr, mathx.Quantile(change, 0.75)-mathx.Quantile(change, 0.25))
	if spread > bound*math.Abs(mp) {
		if allBetter(change, parent, better) {
			return unchanged, wins, pairs
		}
		return unresolved, wins, pairs
	}
	limit := mp * (1 + bound)
	if !lowerBetter {
		limit = mp * (1 - bound)
	}
	if better(limit, mc) {
		return worse, wins, pairs
	}
	return unchanged, wins, pairs
}

func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

func loadSuites(paths []string) ([]*suiteReport, error) {
	out := make([]*suiteReport, len(paths))
	for i, p := range paths {
		out[i] = &suiteReport{}
		if err := readJSON(p, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// metricValues collects one end-to-end metric of one workload across
// reports, skipping reports that lack it.
func metricValues(suites []*suiteReport, workload, metric string) []float64 {
	var vals []float64
	for _, s := range suites {
		wr, ok := s.Workloads[workload]
		if !ok || wr.Untraced == nil {
			continue
		}
		if v, ok := wr.Untraced.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

func quartiles(xs []float64) string {
	ps := mathx.Percentiles(xs, []float64{0.5, 0.25, 0.75})
	return fmt.Sprintf("%.4g [%.4g, %.4g]", ps[0], ps[1], ps[2])
}

func list(names []string) string {
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, ",")
}
