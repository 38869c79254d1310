package model

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/allocator"
)

// migrateKind is one of the four KV layouts a snapshot must round-trip
// through bit-identically: "contiguous" keeps each block table in a single
// block of MaxTargetLen rows, "paged" splits it into 4-row blocks.
type migrateKind struct {
	name  string
	paged bool
	half  bool
}

var migrateKinds = []migrateKind{
	{"contiguous-fp32", false, false},
	{"paged-fp32", true, false},
	{"contiguous-fp16", false, true},
	{"paged-fp16", true, true},
}

// newMigrateGenerator builds one generator of the given kind on its own
// device and pool, with the shared test seed so every generator in a trial
// owns identical weights.
func newMigrateGenerator(t *testing.T, cfg Config, kind migrateKind) (*Generator, *allocator.Device) {
	t.Helper()
	blockRows := cfg.MaxTargetLen
	if kind.paged {
		blockRows = 4
	}
	g, dev, _ := newTestGenerator(t, cfg, blockRows, 4096, 0, kind.half)
	return g, dev
}

// stepAll advances every unfinished session one ragged iteration.
func stepAll(t *testing.T, g *Generator, sessions []*GenSession) {
	t.Helper()
	var live []*GenSession
	for _, s := range sessions {
		if !s.Done() {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return
	}
	if _, err := g.Step(live); err != nil {
		t.Fatal(err)
	}
}

// TestKVHandoffRoundTripFuzz is the hand-off property test: for every block
// layout (contiguous/paged × fp32/fp16) and fuzzed mixed context lengths, a
// session exported mid-decode must import into a fresh same-weights
// generator with (a) a bit-identical re-export — every KV word, fp16 rows
// as raw binary16, survives the round trip — and (b) a continued stream
// identical to the source session's, on both the same layout and the cross
// layout (the snapshot is layout-free and not consumed by import). All
// destination KV gauges must drain to exactly zero afterwards.
func TestKVHandoffRoundTripFuzz(t *testing.T) {
	cfg := genTestConfig()
	for _, kind := range migrateKinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(100*trial + 7)))
				src, srcDev := newMigrateGenerator(t, cfg, kind)

				// Mixed context lengths: every session gets its own source
				// length, budget, and join step, so exports happen out of a
				// raggedly batched cache, not a lone clean one.
				n := 2 + rng.Intn(3)
				sessions := make([]*GenSession, n)
				for i := range sessions {
					srcLen := 1 + rng.Intn(18)
					budget := 4 + rng.Intn(20)
					sessions[i] = openSession(t, src, int64(trial*100+i), testMemory(int64(i*31+trial), srcLen, cfg.Hidden), budget)
				}
				for k := rng.Intn(8); k > 0; k-- {
					stepAll(t, src, sessions)
				}

				cross := kind
				cross.paged = !kind.paged
				for i, s := range sessions {
					if s.Done() {
						s.Close()
						continue
					}
					snap, err := s.Export()
					if err != nil {
						t.Fatal(err)
					}

					// (a) Same-layout import must re-export bit-identically.
					dst, dstDev := newMigrateGenerator(t, cfg, kind)
					imported, err := dst.ImportSession(snap)
					if err != nil {
						t.Fatal(err)
					}
					again, err := imported.Export()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(snap, again) {
						t.Fatalf("%s trial %d session %d: snapshot not bit-identical after import/re-export", kind.name, trial, i)
					}

					// (b) The snapshot is not consumed: a second import into
					// the CROSS layout must also continue identically.
					crossDst, crossDev := newMigrateGenerator(t, cfg, cross)
					crossImported, err := crossDst.ImportSession(snap)
					if err != nil {
						t.Fatal(err)
					}

					for !s.Done() {
						stepAll(t, src, sessions[i:i+1])
					}
					for !imported.Done() {
						stepAll(t, dst, []*GenSession{imported})
					}
					for !crossImported.Done() {
						stepAll(t, crossDst, []*GenSession{crossImported})
					}
					want := s.Generated()
					for name, got := range map[string][]int{"same-layout": imported.Generated(), "cross-layout": crossImported.Generated()} {
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s trial %d session %d (%s): migrated stream %v != source %v", kind.name, trial, i, name, got, want)
						}
					}
					s.Close()
					imported.Close()
					crossImported.Close()
					for name, dev := range map[string]*allocator.Device{"dest": dstDev, "cross-dest": crossDev} {
						snap := dev.Snapshot()
						if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
							t.Fatalf("%s trial %d session %d: %s KV gauges not drained: reserved=%d used=%d",
								kind.name, trial, i, name, snap.KVReservedBytes, snap.KVUsedBytes)
						}
					}
				}
				if snap := srcDev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
					t.Fatalf("%s trial %d: source KV gauges not drained: reserved=%d used=%d",
						kind.name, trial, snap.KVReservedBytes, snap.KVUsedBytes)
				}
			}
		})
	}
}

// TestKVHandoffSnapshotBytes pins the migration payload accounting the
// router's kv_migrated_bytes counter reconciles against: a snapshot prices
// exactly the KV bytes the session occupied at export — (srcLen + kvLen)
// rows × layers × K and V × hidden × element size.
func TestKVHandoffSnapshotBytes(t *testing.T) {
	cfg := genTestConfig()
	for _, kind := range migrateKinds {
		g, _ := newMigrateGenerator(t, cfg, kind)
		const srcLen = 9
		s := openSession(t, g, 1, testMemory(3, srcLen, cfg.Hidden), 12)
		for i := 0; i < 5; i++ {
			stepAll(t, g, []*GenSession{s})
		}
		snap, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		elem := int64(4)
		if kind.half {
			elem = 2
		}
		want := int64(srcLen+snap.KVLen) * int64(cfg.Layers) * 2 * int64(cfg.Hidden) * elem
		if got := snap.Bytes(); got != want {
			t.Fatalf("%s: snapshot bytes %d, want %d", kind.name, got, want)
		}
		if snap.KVLen == 0 {
			t.Fatalf("%s: expected self-KV rows after 5 steps", kind.name)
		}
		s.Close()
	}
}

// TestKVHandoffExportClosedSession: exporting a closed session must fail
// cleanly instead of reading freed KV.
func TestKVHandoffExportClosedSession(t *testing.T) {
	cfg := genTestConfig()
	g, _ := newMigrateGenerator(t, cfg, migrateKinds[0])
	s := openSession(t, g, 1, testMemory(3, 5, cfg.Hidden), 8)
	s.Close()
	if _, err := s.Export(); err == nil {
		t.Fatal("export of a closed session succeeded")
	}
}

// TestKVHandoffImportValidation: geometry and numeric-route mismatches must
// be refused — importing an fp16 snapshot into an fp32 generator would
// silently re-quantise the KV and break bit-identity.
func TestKVHandoffImportValidation(t *testing.T) {
	cfg := genTestConfig()
	src, _ := newMigrateGenerator(t, cfg, migrateKind{half: true})
	s := openSession(t, src, 1, testMemory(3, 5, cfg.Hidden), 8)
	defer s.Close()
	snap, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}

	fp32Dst, _ := newMigrateGenerator(t, cfg, migrateKind{})
	if _, err := fp32Dst.ImportSession(snap); err == nil {
		t.Fatal("fp16 snapshot imported into an fp32 generator")
	}

	smallCfg := cfg
	smallCfg.Hidden, smallCfg.Heads, smallCfg.Inter = 16, 2, 32
	smallDst, _ := newMigrateGenerator(t, smallCfg, migrateKind{half: true})
	if _, err := smallDst.ImportSession(snap); err == nil {
		t.Fatal("snapshot imported into a mismatched geometry")
	}
	if _, err := fp32Dst.ImportSession(nil); err == nil {
		t.Fatal("nil snapshot imported")
	}
}
