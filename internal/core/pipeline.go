package core

import (
	"fmt"
	"math"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
	"mobiletraffic/internal/services"
)

// FitOptions configures the end-to-end fitting pipeline.
type FitOptions struct {
	// Volume tunes the §5.2 mixture fit.
	Volume *VolumeFitOptions
	// MinSessions skips services with fewer observed sessions (their
	// statistics are too noisy to model; default 100, mirroring the
	// operator's aggregation floor).
	MinSessions float64
	// DurationNoise is stored on every fitted ServiceModel for
	// generation (default 0.2 decades).
	DurationNoise float64
	// Filter optionally restricts which measurement cells inform the
	// fit (e.g. probe.DayIn for per-period models, probe.BSIn for
	// per-area models).
	Filter probe.KeyFilter
	// Workers bounds the per-service fitting parallelism (default: one
	// per CPU; 1 forces serial execution). Every fitted parameter and
	// the FitReport are bit-identical for any worker count: services
	// are fitted independently into pre-sized slots and the report is
	// assembled serially in catalog order afterwards.
	Workers int
}

func (o *FitOptions) withDefaults() FitOptions {
	out := FitOptions{MinSessions: 100, DurationNoise: 0.2}
	if o == nil {
		return out
	}
	out.Volume = o.Volume
	if o.MinSessions > 0 {
		out.MinSessions = o.MinSessions
	}
	if o.DurationNoise > 0 {
		out.DurationNoise = o.DurationNoise
	}
	out.Filter = o.Filter
	out.Workers = o.Workers
	return out
}

// FitServiceModels runs the full §5 modeling pipeline on collected
// measurements; see FitServiceModelsReport. It returns the (possibly
// partial) ModelSet and discards the degradation report.
func FitServiceModels(c *probe.Collector, catalog []services.Profile, opts *FitOptions) (*ModelSet, error) {
	set, _, err := FitServiceModelsReport(c, catalog, opts)
	return set, err
}

// FitServiceModelsReport runs the full §5 modeling pipeline on
// collected measurements: for every service in the catalog it
// aggregates the nationwide volume PDF (Eq. 2) and duration-volume
// pairs (Eq. 1), fits the log-normal mixture (§5.2) and the power law
// (§5.3), and records the session share (Table 1) and the volume-model
// EMD (§5.4).
//
// The pipeline degrades gracefully: a per-service failure never aborts
// the run. Services whose mixture fit diverges fall back to a single
// log-normal; services whose power-law fit fails fall back to a
// constant-throughput law; services with too few sessions or unusable
// statistics are skipped. Every deviation is recorded in the returned
// FitReport, so a partial ModelSet always comes back with a faithful
// account of what degraded. An error is returned only when the inputs
// are structurally invalid or no service at all could be modeled.
func FitServiceModelsReport(c *probe.Collector, catalog []services.Profile, opts *FitOptions) (*ModelSet, *FitReport, error) {
	span := obs.StartSpan("fit/services")
	defer span.End()
	// Pre-register the degradation counters so a clean run still
	// exposes them at zero — dashboards alert on these going nonzero,
	// which only works if the series exists beforehand.
	obs.CounterOf("fit_fallbacks_total")
	obs.CounterOf("fit_skipped_total")
	o := opts.withDefaults()
	if c == nil {
		return nil, nil, fmt.Errorf("core: nil collector")
	}
	if len(catalog) != c.NumServices {
		return nil, nil, fmt.Errorf("core: catalog size %d does not match collector services %d",
			len(catalog), c.NumServices)
	}
	shares, _, err := c.SessionShare(o.Filter)
	if err != nil {
		return nil, nil, fmt.Errorf("core: session shares: %w", err)
	}
	durations := c.DurationCenters()
	withFilter := func(svc int) probe.KeyFilter {
		f := probe.ForService(svc)
		if o.Filter != nil {
			return probe.And(f, o.Filter)
		}
		return f
	}
	// Services are fitted independently — each one aggregates, fits and
	// reports into its own pre-sized slot — so the loop fans out over a
	// bounded worker pool. The combined report and the ModelSet are
	// assembled serially in catalog order afterwards, which keeps the
	// output bit-identical to a serial run for any worker count.
	results := make([]svcFit, len(catalog))
	runTasks(len(catalog), o.Workers, func(svc int) {
		results[svc] = fitOneService(c, catalog[svc].Name, svc, shares[svc], durations, withFilter(svc), &o, span)
	})
	set := &ModelSet{}
	report := &FitReport{}
	for svc := range results {
		report.Merge(&results[svc].report)
		if results[svc].model != nil {
			set.Services = append(set.Services, *results[svc].model)
		}
	}
	if len(set.Services) == 0 {
		return nil, report, fmt.Errorf("core: no service could be modeled (%d skipped)", len(report.Skipped))
	}
	return set, report, nil
}

// svcFit is the outcome slot of one service's independent fit: the
// fitted model (nil when skipped) plus the service-local degradation
// report, merged into the combined report in catalog order.
type svcFit struct {
	model  *ServiceModel
	report FitReport
}

// fitOneService runs the §5.2/§5.3 pipeline for a single service:
// aggregate the volume PDF and duration-volume pairs, fit the mixture
// and the power law with their graceful fallbacks, and record every
// deviation in the slot's local report. It only reads the collector,
// so concurrent calls for distinct services are race-free.
func fitOneService(c *probe.Collector, name string, svc int, share float64, durations []float64, filter probe.KeyFilter, o *FitOptions, span *obs.Span) svcFit {
	var out svcFit
	report := &out.report
	aggSpan := span.Child("aggregate", "service", name)
	hist, weight, err := c.AggregateVolume(filter)
	aggSpan.End()
	if err != nil {
		report.skip(name, "sessions", err)
		return out
	}
	if weight < o.MinSessions {
		report.skip(name, "sessions",
			fmt.Errorf("%.0f sessions below the %.0f aggregation floor", weight, o.MinSessions))
		return out
	}
	volSpan := span.Child("fit/volume", "service", name)
	vm, err := FitVolumeModel(hist, o.Volume)
	volSpan.End()
	if err != nil {
		// The mixture fit diverged; a single log-normal over the
		// same histogram still captures the main trend.
		fb, fbErr := fallbackVolumeModel(hist)
		if fbErr != nil {
			report.skip(name, "volume", err)
			return out
		}
		vm = fb
		report.fallback(name, "volume", "single log-normal", err)
	}
	emd, err := vm.EMD(hist)
	if err != nil {
		emd = math.NaN()
		report.warn("%s: volume EMD unavailable: %v", name, err)
	}
	values, counts, err := c.AggregatePairs(filter)
	if err != nil {
		report.skip(name, "pairs", err)
		return out
	}
	durSpan := span.Child("fit/duration", "service", name)
	dm, err := FitDurationModel(durations, values, counts)
	durSpan.End()
	if err != nil {
		fb, fbErr := fallbackDurationModel(durations, values, counts)
		if fbErr != nil {
			report.skip(name, "duration", fmt.Errorf("%v; fallback: %v", err, fbErr))
			return out
		}
		dm = fb
		report.fallback(name, "duration", "constant-throughput power law", err)
	}
	out.model = &ServiceModel{
		Name:          name,
		SessionShare:  share,
		Volume:        *vm,
		Duration:      *dm,
		VolumeEMD:     emd,
		DurationNoise: o.DurationNoise,
	}
	report.Fitted++
	obs.CounterOf("fit_services_fitted_total").Inc()
	// Per-service fit-quality gauges: the §5.4 EMD of the volume
	// mixture and the R² of the duration power law — the numbers
	// FitReport consumers audit, exposed live for drift alerts.
	obs.GaugeOf("fit_volume_emd", "service", name).Set(emd)
	obs.GaugeOf("fit_duration_r2", "service", name).Set(dm.R2)
	return out
}

// FallbackVolumeSigmaFloor is the minimum main-trend width of a
// fallback volume fit, one measurement bin (0.05 decades): a PDF with
// all mass in a single bin would otherwise yield a zero-width,
// unsampleable log-normal.
const FallbackVolumeSigmaFloor = 0.05

// fallbackVolumeModel fits a single log-normal (no residual peaks) by
// moments — the degenerate Eq. (5) with zero components. Used when the
// full mixture decomposition diverges on a degraded measurement PDF.
func fallbackVolumeModel(measured *dist.Hist) (*VolumeModel, error) {
	h := measured.Clone()
	if err := h.Normalize(); err != nil {
		return nil, fmt.Errorf("core: volume fallback: %w", err)
	}
	mu, sigma := h.Mean(), h.Std()
	if !mathx.IsFinite(mu) || !mathx.IsFinite(sigma) {
		return nil, fmt.Errorf("core: volume fallback: non-finite moments")
	}
	if sigma < FallbackVolumeSigmaFloor {
		sigma = FallbackVolumeSigmaFloor
	}
	return &VolumeModel{
		MainMu:    mu,
		MainSigma: sigma,
		MaxVolume: math.Pow(10, h.Quantile(1-1e-4)),
	}, nil
}

// fallbackDurationModel fits the degenerate power law beta = 1
// (duration-independent throughput): alpha is the session-weighted
// mean throughput over every populated duration bin. Used when the
// guarded LM fit fails on degraded pair statistics — it preserves the
// service's traffic intensity even when the exponent is unrecoverable.
func fallbackDurationModel(durations, values, counts []float64) (*DurationModel, error) {
	var vol, dur float64
	for i := range durations {
		if i >= len(values) || counts == nil || i >= len(counts) {
			break
		}
		if counts[i] <= 0 || !mathx.IsFinite(values[i]) || values[i] <= 0 || durations[i] <= 0 {
			continue
		}
		vol += values[i] * counts[i]
		dur += durations[i] * counts[i]
	}
	if vol <= 0 || dur <= 0 {
		return nil, fmt.Errorf("core: duration fallback: no populated bins")
	}
	return &DurationModel{Alpha: vol / dur, Beta: 1, R2: 0}, nil
}

// FitArrivalsByDecile fits one ArrivalModel per BS load decile from
// the collected minute counts; see FitArrivalsByDecileReport. It
// returns the models and discards the degradation report.
func FitArrivalsByDecile(c *probe.Collector, topo *netsim.Topology) ([]*ArrivalModel, error) {
	models, _, err := FitArrivalsByDecileReport(c, topo)
	return models, err
}

// FitArrivalsByDecileReport fits one ArrivalModel per BS load decile
// from the collected minute counts, reproducing the Fig. 3 / §5.1
// fits. topo provides the decile membership of each BS.
//
// Deciles whose BSs exported no samples (e.g. every probe of the class
// was dark) borrow the model of the nearest populated decile instead
// of aborting the whole fit; each substitution is recorded in the
// returned FitReport. An error is returned only when no decile at all
// could be fitted.
func FitArrivalsByDecileReport(c *probe.Collector, topo *netsim.Topology) ([]*ArrivalModel, *FitReport, error) {
	return FitArrivalsByDecileWorkers(c, topo, 0)
}

// FitArrivalsByDecileWorkers is FitArrivalsByDecileReport with an
// explicit worker-pool bound (workers <= 0 uses every CPU; 1 forces
// serial execution). Deciles are independent — each reads its own BS
// class from the collector and fits into a pre-sized slot — and the
// report is assembled serially in decile order afterwards, so the
// models and the report are bit-identical for any worker count.
func FitArrivalsByDecileWorkers(c *probe.Collector, topo *netsim.Topology, workers int) ([]*ArrivalModel, *FitReport, error) {
	span := obs.StartSpan("fit/arrivals")
	defer span.End()
	if c == nil || topo == nil {
		return nil, nil, fmt.Errorf("core: nil collector or topology")
	}
	models := make([]*ArrivalModel, 10)
	reports := make([]FitReport, 10)
	runTasks(10, workers, func(d int) {
		report := &reports[d]
		label := fmt.Sprintf("decile %d", d+1)
		idx := topo.ByDecile(d)
		if len(idx) == 0 {
			report.skip(label, "arrivals", fmt.Errorf("no BSs in class"))
			return
		}
		filter := probe.BSIn(idx)
		peak, off := c.MinuteCountSamplePair(filter, netsim.IsPeakMinute, netsim.IsOffPeakMinute)
		if len(peak) == 0 || len(off) == 0 {
			report.skip(label, "arrivals", fmt.Errorf("no minute samples (probes dark?)"))
			return
		}
		m, err := FitArrivalModel(peak, off)
		if err != nil {
			report.skip(label, "arrivals", err)
			return
		}
		models[d] = m
		report.Fitted++
	})
	report := &FitReport{}
	for d := range reports {
		report.Merge(&reports[d])
	}
	if report.Fitted == 0 {
		return nil, report, fmt.Errorf("core: no arrival class could be fitted")
	}
	// Backfill missing classes from the nearest fitted decile so the
	// released model always covers all 10 load classes.
	for d := 0; d < 10; d++ {
		if models[d] != nil {
			continue
		}
		src := -1
		for step := 1; step < 10; step++ {
			if d-step >= 0 && models[d-step] != nil {
				src = d - step
				break
			}
			if d+step < 10 && models[d+step] != nil {
				src = d + step
				break
			}
		}
		clone := *models[src]
		models[d] = &clone
		report.fallback(fmt.Sprintf("decile %d", d+1), "arrivals",
			fmt.Sprintf("nearest class (decile %d)", src+1), nil)
	}
	return models, report, nil
}
