package main

import "testing"

// TestSelectKept checks that ops due in a window with heavy steal, and
// windows past the end of the load, are left out, and that host CPU and
// machine time are summed over the kept windows only.
func TestSelectKept(t *testing.T) {
	const w = int64(windowLen)
	// Four windows inside the load, the third with 50% steal, then one
	// window after it ends.
	var samples []windowSample
	var cpu cpuTimes
	var ns uint64
	for i := int64(0); i <= 5; i++ {
		samples = append(samples, windowSample{at: i * w, cpu: cpu, hostNS: ns})
		cpu.total += 20
		ns += 3
		if i == 2 {
			cpu.steal += 10
		}
	}
	var recs []opRecord
	for due := int64(0); due < 5*w; due += w / 4 {
		recs = append(recs, opRecord{due: due})
	}
	c := selectKept(recs, samples, 4*w, 0.25, 0.25)
	if c.allWindows != 4 || c.windows != 3 {
		t.Fatalf("kept %d of %d windows, want 3 of 4", c.windows, c.allWindows)
	}
	if len(c.recs) != 12 {
		t.Fatalf("kept %d ops, want the 12 due in windows 0, 1 and 3", len(c.recs))
	}
	for _, r := range c.recs {
		if r.due >= 2*w && r.due < 3*w || r.due >= 4*w {
			t.Errorf("op due at %v kept", r.due)
		}
	}
	if c.hostNS != 9 || c.total != 60 || c.steal != 0 {
		t.Errorf("kept windows sum to %d host ns, %d total, %d steal; want 9, 60, 0", c.hostNS, c.total, c.steal)
	}
}

// TestSelectKeptRaisesLimit checks that when too few ops fall in windows
// within the steal limit, the quietest windows are kept until they hold
// the least share, and the limit applied is the steal of the last one.
func TestSelectKeptRaisesLimit(t *testing.T) {
	const w = int64(windowLen)
	// Four windows inside the load with 40%, 20%, 60% and 30% steal.
	steals := []uint64{8, 4, 12, 6}
	var samples []windowSample
	var cpu cpuTimes
	for i := int64(0); i <= 4; i++ {
		samples = append(samples, windowSample{at: i * w, cpu: cpu})
		if i < 4 {
			cpu.total += 20
			cpu.steal += steals[i]
		}
	}
	var recs []opRecord
	for due := int64(0); due < 4*w; due += w / 4 {
		recs = append(recs, opRecord{due: due})
	}
	c := selectKept(recs, samples, 4*w, 0.10, 0.5)
	if c.windows != 2 || len(c.recs) != 8 {
		t.Fatalf("kept %d windows and %d ops, want the 2 quietest and their 8", c.windows, len(c.recs))
	}
	if c.maxSteal != 0.3 {
		t.Errorf("steal limit %v, want 0.3", c.maxSteal)
	}
	for _, r := range c.recs {
		if r.due < w || r.due >= 2*w && r.due < 3*w {
			t.Errorf("op due at %v kept", r.due)
		}
	}
}
