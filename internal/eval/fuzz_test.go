package eval

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
)

// FuzzJournalDecode feeds arbitrary bytes through the journal parser:
// the header rules and every record decoder, not just the frame walker.
// The contract: VerifyJournal never panics, and every failure is typed
// db.ErrCorrupt (or its ErrTruncated subclass) or db.ErrVersion.
func FuzzJournalDecode(f *testing.F) {
	// Seed with a journal holding every record kind so mutations start
	// deep in the format rather than failing at the magic.
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		f.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		f.Fatal(err)
	}
	if err := ck.PutFlow(designs.CPU, core.ConfigHetero, binaryFlowResult()); err != nil {
		f.Fatal(err)
	}
	if err := ck.PutLease(Lease{Shard: 1, Action: LeaseExpire, Owner: "s1-a1", Attempt: 1,
		Reason: "stalled", Units: []Unit{{Design: designs.CPU, Config: core.ConfigHetero}}}); err != nil {
		f.Fatal(err)
	}
	ck.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A flow record carrying a deep dive and check reports, which
	// PutFlow would recompute from live state.
	rec := &ckptFlow{Design: "cpu", Config: string(core.ConfigHetero)}
	r := binaryFlowResult()
	rec.PPAC, rec.Stages, rec.Degraded, rec.Dive, rec.Checks = r.PPAC, r.Stages, r.Degraded, r.Dive, r.Checks
	full, err := appendRecordFrame(append([]byte(nil), seed...), rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(seed[:len(seed)-7])
	f.Add(db.Header(db.MagicJournal))
	f.Add([]byte(`{"kind":"header","version":1}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The raw input exercises the framing; the same input with every
		// complete frame's CRC recomputed gets past the checksum into
		// the header rules and the record decoders.
		for _, in := range [][]byte{data, withValidCRCs(data)} {
			if err := VerifyJournal(in); err != nil && !errors.Is(err, db.ErrCorrupt) && !errors.Is(err, db.ErrVersion) {
				t.Fatalf("VerifyJournal: untyped error %v", err)
			}
		}
	})
}

// withValidCRCs returns a copy of a journal image whose complete frames
// carry correct CRCs. Frame layout after the 8-byte file header: 4-byte
// tag, little-endian u32 payload length, payload, little-endian u32
// CRC-32 (IEEE) of the payload.
func withValidCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 8; off+8 <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off+4:]))
		end := off + 8 + n + 4
		if n < 0 || end > len(out) || end < off {
			break
		}
		binary.LittleEndian.PutUint32(out[end-4:], crc32.ChecksumIEEE(out[off+8:end-4]))
		off = end
	}
	return out
}
