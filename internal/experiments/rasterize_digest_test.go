package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mobiletraffic/internal/littrafgen"
	"mobiletraffic/internal/slicing"
)

// hashTrace digests every cell of a demand trace bit for bit.
func hashTrace(d *slicing.DemandTrace) string {
	h := sha256.New()
	var buf [8]byte
	for _, row := range d.Demand {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashResult digests a result struct through its %+v rendering, which
// prints every float64 in its shortest round-trip form (and maps in
// key order), so equal digests mean bit-identical fields.
func hashResult(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))
}

// TestUseCaseRasterizationDigests pins the §6 outputs that go through
// demand rasterization — Table 2, Fig. 12, Fig. 13 and the real, model
// and category demand traces — to digests
// recorded before the per-slot loops were folded into
// mathx.SpreadUniform. Any change to how a session's volume lands in
// its slots, or to the order cells accumulate in, changes a digest.
func TestUseCaseRasterizationDigests(t *testing.T) {
	env := sharedEnv(t)
	want := map[string]string{
		"table2":      "027c58d3b9bcbdd096f1ed78054ee4203a02664b751df40bf231099af23301df",
		"fig12":       "d182a17b3ce347c4705050c6e6ca46310206c0dcd688b1351af11bf613bf3869",
		"fig13":       "b9991a5d656fe9f4d2e33a221939a11bff36f130c4a4c0e34bbe267f50d28f9d",
		"real":        "5d5de8aaca3502daa8a58a634df38ba7a5ad54af3a4a64c8e4c07c31be07408f",
		"model/v2":    "420756126a4c86143e780ecb355d5caf83b522c3b6d7383667f71a2dff9f94fe",
		"category/v2": "ce868e784006c7383f9392ad4ad384b98b243919d9053dc8153511df11fa11b4",
	}
	got := map[string]string{}

	t2, err := ExpTable2(env, SlicingConfig{Antennas: 2, Days: 2, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got["table2"] = hashResult(t2)
	f12, err := ExpFig12(env, SlicingConfig{Days: 2, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got["fig12"] = hashResult(f12)
	f13, err := ExpFig13(env, VRANConfig{ESs: 3, RUsPerES: 4, Hours: 1, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got["fig13"] = hashResult(f13)

	antenna := busiestAntennas(env, 1)[0]
	real, err := buildRealDemand(env, antenna, 2, len(env.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	got["real"] = hashTrace(real)
	arr, err := antennaArrivals(env, antenna)
	if err != nil {
		t.Fatal(err)
	}
	catalogIdx, modelIdx := modeledIndices(env)
	shares := [littrafgen.NumCategories]float64{0.5, 0.3, 0.2}
	model, err := buildModelDemand(env, arr, 2, len(env.Catalog), catalogIdx, modelIdx, 11, uint64(antenna), 2)
	if err != nil {
		t.Fatal(err)
	}
	got["model/v2"] = hashTrace(model)
	cat, err := buildCategoryDemand(arr, 2, shares, 11, uint64(antenna), 2)
	if err != nil {
		t.Fatal(err)
	}
	got["category/v2"] = hashTrace(cat)

	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s digest = %s, want %s", k, got[k], w)
		}
	}
}

// TestDemandTileAdd checks the category tile against
// slicing.AddSession: the same spread for sessions that spill past the
// day and past the horizon, and a silent skip for every session
// AddSession would reject.
func TestDemandTileAdd(t *testing.T) {
	const maxCols = 3 * 24 * 60
	nan, inf := math.NaN(), math.Inf(1)
	var tile demandTile
	tile.reset()
	ref, err := slicing.NewDemandTrace(littrafgen.NumCategories, maxCols)
	if err != nil {
		t.Fatal(err)
	}
	sessions := []slicing.SessionSpec{
		{Service: 0, Start: 30, Duration: 120, Volume: 120},
		{Service: 1, Start: 86000, Duration: 1000, Volume: 5e4},     // spills into day 2
		{Service: 2, Start: 120, Duration: 1e9, Volume: 1e12},       // spills past the horizon
		{Service: 2, Start: 3 * 86400, Duration: 60, Volume: 1},     // starts at the horizon
		{Service: 0, Start: 2*86400 - 60, Duration: 60, Volume: 60}, // ends on a minute edge
	}
	for _, s := range sessions {
		tile.add(s.Service, s.Start, s.Duration, s.Volume, maxCols)
		if err := ref.AddSession(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []slicing.SessionSpec{
		{Start: 90, Duration: nan, Volume: 1},
		{Start: 90, Duration: 60, Volume: nan},
		{Start: nan, Duration: 60, Volume: 1},
		{Start: 90, Duration: inf, Volume: inf},
		{Start: 90, Duration: 0, Volume: 1},
		{Start: 90, Duration: 60, Volume: -1},
	} {
		tile.add(bad.Service, bad.Start, bad.Duration, bad.Volume, maxCols)
	}
	for c := range tile.rows {
		if len(tile.rows[c]) > maxCols {
			t.Fatalf("row %d grew to %d columns, past the %d-column horizon", c, len(tile.rows[c]), maxCols)
		}
		for m, want := range ref.Demand[c] {
			var got float64
			if m < len(tile.rows[c]) {
				got = tile.rows[c][m]
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d minute %d = %v, want %v", c, m, got, want)
			}
		}
	}
}
