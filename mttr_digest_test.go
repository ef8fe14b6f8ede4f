package mobiletraffic

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"mobiletraffic/internal/trace"
)

// TestMTTRDigest pins the MTTR output path — a generator campaign
// folded into a Bin trace, read back and summarized — to the sha256 of
// the trace bytes and of the read-back records' Summary JSON. The
// campaign covers every load decile for one day, so the trace spans
// dozens of 4096-record blocks and its footer carries the volume
// quantiles of ~10^5 sessions: any change to the encodings, the block
// layout, the footer Summary or the quantile definition changes a
// digest.
func TestMTTRDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	set, err := FitFromSimulation(SimulationConfig{NumBS: 12, Days: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(set, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Bin)
	if err != nil {
		t.Fatal(err)
	}
	err = gen.GenerateCampaignFold(CampaignSpec{Arrivals: set.Arrivals, Days: 1, Workers: 2}, func(blk *DayBlock) error {
		origin := float64(blk.Day) * 86400
		for i := 0; i < blk.Sessions(); i++ {
			err := w.Write(trace.Record{
				TimeS:      origin + blk.Start[i],
				Service:    set.Services[blk.Svc[i]].Name,
				Bytes:      blk.Volume[i],
				DurationS:  blk.Duration[i],
				Throughput: blk.Volume[i] / blk.Duration[i],
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() <= 4096 {
		t.Fatalf("campaign wrote %d records, want several blocks", w.Count())
	}
	data := buf.Bytes()
	recs, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != w.Count() {
		t.Fatalf("read %d records, wrote %d", len(recs), w.Count())
	}
	sumJSON, err := json.Marshal(trace.Summarize(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"mttr", data, "6bf472b3011d77c568c9bcd3141e96ddc7c9d321d7bd35402424b3de06d64e7a"},
		{"summary", sumJSON, "6ff6c88a4fcbcc0618f3e053047636272ae18d4f8fcb18b0b72c8706b09759ce"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.data)); got != tc.want {
			t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
		}
	}
	t.Logf("%d records, %d bytes", len(recs), len(data))
}
