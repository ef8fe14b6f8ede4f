package netsim

import (
	"math"

	"mobiletraffic/internal/mathx"
)

// MinutesPerDay is the number of one-minute aggregation slots per day,
// matching the operator's one-minute pre-aggregation (§3.2).
const MinutesPerDay = 24 * 60

// Day-phase boundaries for the bi-modal arrival process (§4.1): daytime
// plateau from 08:00 to 22:00, nighttime trough from 23:00 to 06:00,
// with rapid transitions in between ("transitions between these two
// phases are very rapid", §4.1).
const (
	dayStartMin   = 8 * 60
	dayEndMin     = 22 * 60
	transitionMin = 45.0 // logistic transition width, minutes
)

// DayWeight returns the smooth day-phase indicator for a minute of day
// in [0, 1): ~1 during daylight hours, ~0 overnight, with steep
// logistic transitions.
func DayWeight(minute int) float64 {
	m := float64(minute)
	rise := 1 / (1 + math.Exp(-(m-dayStartMin)/transitionMin*4))
	fall := 1 / (1 + math.Exp(-(dayEndMin-m)/transitionMin*4))
	return rise * fall
}

// offPeakExp is the precomputed inverse-CDF Pareto exponent.
const offPeakExp = -1 / OffPeakParetoShape

// arrivalCountFast draws the number of new sessions established at the
// BS during one minute whose day-phase weight is w. During daylight
// hours counts follow a Gaussian with mean PeakRate and deviation
// PeakRate/10 (the paper's sigma ~ mu/10 regularity); overnight they
// follow a Pareto with shape 1.765 and the BS's off-peak scale, clamped
// at half the peak rate. The two regimes mix through the steep logistic
// phase weight, which makes intermediate rates rare and the per-minute
// count PDF bi-modal as in Fig. 3.
func arrivalCountFast(bs *BS, w float64, rng *mathx.PCG) int {
	var rate float64
	if rng.Float64() < w {
		rate = bs.PeakRate + bs.PeakRate/10*rng.NormFloat64()
	} else {
		// Inverse-CDF Pareto draw; the off-peak mode must stay below
		// the daytime plateau, so its heavy tail is clamped.
		rate = bs.OffPeakScale * math.Pow(1-rng.Float64(), offPeakExp)
		if clamp := bs.PeakRate * 0.5; rate > clamp {
			rate = clamp
		}
	}
	if rate <= 0 {
		return 0
	}
	n := int(math.Round(rate))
	if n < 0 {
		return 0
	}
	return n
}

// IsPeakMinute reports whether the minute falls safely inside the
// daytime plateau (used when fitting day and night modes separately in
// §5.1). The window starts two transition widths after the morning rise
// and ends two before the evening fall, so that no night-mode draws
// leak into the daytime Gaussian fit and sigma stays at the paper's
// ~mu/10 regularity.
func IsPeakMinute(minute int) bool {
	return minute >= dayStartMin+2*60 && minute < dayEndMin-2*60
}

// IsDaytime reports whether the minute is predominantly in the day
// phase (DayWeight >= 0.5): the right phase selector when generating a
// whole day of traffic minute by minute.
func IsDaytime(minute int) bool { return DayWeight(minute) >= 0.5 }

// IsOffPeakMinute reports whether the minute falls in the overnight
// trough, excluding the transition bands.
func IsOffPeakMinute(minute int) bool {
	return minute < dayStartMin-60 || minute >= dayEndMin+60
}
