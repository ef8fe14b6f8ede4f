package experiments

import "testing"

// TestMeasurementResultDigests pins the experiment outputs that are
// fed by the simulated measurement plane — the model-aging drift
// comparison (a second simulated campaign, collected and refitted) and
// the generator-fidelity comparison (measured sessions replayed
// through GenerateDay) — to digests recorded before sampler v1 and the
// serial collection loops were deleted. A change to any simulated
// session, to the order sessions reach the collector, or to the fits
// changes a digest.
func TestMeasurementResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	env := sharedEnv(t)
	want := map[string]string{
		"drift":    "30a1d25ba55a983401cd62f33c99d3e2e2dda3295170ec389812fdcf37a620a9",
		"fidelity": "fee429514f911ae085124c5a7509b042b65f4ec9fe4380ba7802442f4fe15fb3",
	}
	got := map[string]string{}

	drift, err := ExpDrift(env)
	if err != nil {
		t.Fatal(err)
	}
	// %+v prints a nested pointer as its address, so the comparison is
	// digested through its value.
	flat := *drift
	flat.Comparison = nil
	got["drift"] = hashResult([]any{*drift.Comparison, flat})
	fid, err := ExpFidelity(env, nil, 8000)
	if err != nil {
		t.Fatal(err)
	}
	got["fidelity"] = hashResult(fid)

	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s digest = %s, want %s", k, got[k], w)
		}
	}
}
