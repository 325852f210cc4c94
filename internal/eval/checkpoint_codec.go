package eval

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
)

// Frame codec of the evaluation journal (see checkpoint.go). Records
// are written with the same explicit per-field encoders the design
// database uses — no reflection, and floats survive exactly by
// construction rather than by shortest-round-trip printing. One record
// has exactly one encoding, which is what lets the merge compare
// duplicates by their frame bytes.

// Frame tags of the journal.
const (
	tagCkptHeader = "EHDR"
	tagCkptFmax   = "FMAX"
	tagCkptFlow   = "FLOW"
	// tagCkptLease frames shard-coordination records (db.TagLease): the
	// lease lifecycle internal/shard's supervisor appends around the
	// worker processes' own fmax/flow records.
	tagCkptLease = db.TagLease
)

func readHeaderFrame(r *db.Reader) (ckptHeader, error) {
	var h ckptHeader
	v, err := r.I32()
	if err != nil {
		return h, err
	}
	h.Version = int(v)
	if h.Scale, err = r.F64(); err != nil {
		return h, err
	}
	if h.Seed, err = r.I64(); err != nil {
		return h, err
	}
	nd, err := r.Count(4)
	if err != nil {
		return h, err
	}
	for i := 0; i < nd; i++ {
		s, err := r.String()
		if err != nil {
			return h, err
		}
		h.Designs = append(h.Designs, s)
	}
	nc, err := r.Count(4)
	if err != nil {
		return h, err
	}
	for i := 0; i < nc; i++ {
		s, err := r.String()
		if err != nil {
			return h, err
		}
		h.Configs = append(h.Configs, s)
	}
	if v, err = r.I32(); err != nil {
		return h, err
	}
	h.FmaxIterations = int(v)
	h.Check, err = r.String()
	return h, err
}

// appendRecordFrame encodes one journal record — a ckptHeader, or a
// *ckptFmax, *ckptFlow, or *Lease — as a frame appended to dst.
func appendRecordFrame(dst []byte, rec any) ([]byte, error) {
	w := db.NewWriter()
	var tag string
	switch r := rec.(type) {
	case ckptHeader:
		tag = tagCkptHeader
		w.PutI32(int32(r.Version))
		w.PutF64(r.Scale)
		w.PutI64(r.Seed)
		w.PutU32(uint32(len(r.Designs)))
		for _, d := range r.Designs {
			w.PutString(d)
		}
		w.PutU32(uint32(len(r.Configs)))
		for _, c := range r.Configs {
			w.PutString(c)
		}
		w.PutI32(int32(r.FmaxIterations))
		w.PutString(r.Check)
	case *ckptFmax:
		tag = tagCkptFmax
		w.PutString(r.Design)
		w.PutI32(int32(r.Cells))
		w.PutF64(r.FmaxGHz)
	case *ckptFlow:
		tag = tagCkptFlow
		w.PutString(r.Design)
		w.PutString(r.Config)
		core.PutPPAC(w, r.PPAC)
		w.PutU32(uint32(len(r.Stages)))
		for _, m := range r.Stages {
			db.PutStageMetric(w, m)
		}
		w.PutU32(uint32(len(r.Degraded)))
		for _, s := range r.Degraded {
			w.PutString(s)
		}
		w.PutBool(r.Dive != nil)
		if r.Dive != nil {
			core.PutDeepDive(w, r.Dive)
		}
		w.PutU32(uint32(len(r.Checks)))
		for _, rep := range r.Checks {
			db.PutCheckReport(w, rep)
		}
	case *Lease:
		tag = tagCkptLease
		w.PutI32(int32(r.Shard))
		w.PutString(r.Action)
		w.PutString(r.Owner)
		w.PutI32(int32(r.Attempt))
		w.PutString(r.Reason)
		w.PutU32(uint32(len(r.Units)))
		for _, u := range r.Units {
			w.PutString(string(u.Design))
			w.PutString(string(u.Config))
		}
	default:
		return nil, fmt.Errorf("unsupported journal record %T", rec)
	}
	return db.AppendFrame(dst, tag, w.Bytes())
}

func readLeaseFrame(r *db.Reader) (*Lease, error) {
	rec := &Lease{}
	v, err := r.I32()
	if err != nil {
		return nil, err
	}
	rec.Shard = int(v)
	if rec.Action, err = r.String(); err != nil {
		return nil, err
	}
	if !validLeaseAction(rec.Action) {
		return nil, db.Corruptf("lease frame: invalid action %q", rec.Action)
	}
	if rec.Owner, err = r.String(); err != nil {
		return nil, err
	}
	if v, err = r.I32(); err != nil {
		return nil, err
	}
	rec.Attempt = int(v)
	if rec.Reason, err = r.String(); err != nil {
		return nil, err
	}
	nu, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nu; i++ {
		var u Unit
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		u.Design = designs.Name(s)
		if s, err = r.String(); err != nil {
			return nil, err
		}
		u.Config = core.ConfigName(s)
		rec.Units = append(rec.Units, u)
	}
	return rec, nil
}

func readFmaxFrame(r *db.Reader) (*ckptFmax, error) {
	rec := &ckptFmax{}
	var err error
	if rec.Design, err = r.String(); err != nil {
		return nil, err
	}
	v, err := r.I32()
	if err != nil {
		return nil, err
	}
	rec.Cells = int(v)
	rec.FmaxGHz, err = r.F64()
	return rec, err
}

func readFlowFrame(r *db.Reader) (*ckptFlow, error) {
	rec := &ckptFlow{}
	var err error
	if rec.Design, err = r.String(); err != nil {
		return nil, err
	}
	if rec.Config, err = r.String(); err != nil {
		return nil, err
	}
	if rec.PPAC, err = core.ReadPPAC(r); err != nil {
		return nil, err
	}
	ns, err := r.Count(13)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ns; i++ {
		m, err := db.ReadStageMetric(r)
		if err != nil {
			return nil, err
		}
		rec.Stages = append(rec.Stages, m)
	}
	ndg, err := r.Count(4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ndg; i++ {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		rec.Degraded = append(rec.Degraded, s)
	}
	hasDive, err := r.Bool()
	if err != nil {
		return nil, err
	}
	if hasDive {
		if rec.Dive, err = core.ReadDeepDive(r); err != nil {
			return nil, err
		}
	}
	nch, err := r.Count(16)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nch; i++ {
		rep, err := db.ReadCheckReport(r)
		if err != nil {
			return nil, err
		}
		rec.Checks = append(rec.Checks, rep)
	}
	return rec, nil
}

// parseCheckpoint walks the framed journal. The header frame must come
// first and exactly once, unknown tags are skipped, and a truncated
// final frame is tolerated (the run was killed mid-append; that
// record's work re-runs). end is the file offset just past the last
// complete frame, where the next append belongs. A CRC failure on a
// complete frame is corruption and refuses the journal. Every error is
// typed: errors.Is(err, db.ErrCorrupt) or errors.Is(err, db.ErrVersion).
func parseCheckpoint(data []byte) (hdr ckptHeader, recs []ckptRecord, end int, err error) {
	body, err := db.ParseHeader(data, db.MagicJournal)
	if err != nil {
		return hdr, nil, 0, err
	}
	it := db.NewFrameIter(body)
	sawHeader := false
	for {
		tag, payload, err := it.Next()
		if errors.Is(err, db.ErrTruncated) || err == io.EOF {
			break
		}
		if err != nil {
			return hdr, nil, 0, err
		}
		r := db.NewReader(payload)
		switch tag {
		case tagCkptHeader:
			if sawHeader {
				return hdr, nil, 0, db.Corruptf("duplicate header frame")
			}
			sawHeader = true
			if hdr, err = readHeaderFrame(r); err != nil {
				return hdr, nil, 0, err
			}
		case tagCkptFmax:
			rec, err := readFmaxFrame(r)
			if err != nil {
				return hdr, nil, 0, err
			}
			recs = append(recs, ckptRecord{fmax: rec})
		case tagCkptFlow:
			rec, err := readFlowFrame(r)
			if err != nil {
				return hdr, nil, 0, err
			}
			recs = append(recs, ckptRecord{flow: rec})
		case tagCkptLease:
			rec, err := readLeaseFrame(r)
			if err != nil {
				return hdr, nil, 0, err
			}
			recs = append(recs, ckptRecord{lease: rec})
		default:
			// Unknown frame: a future record kind; skip it.
		}
	}
	if !sawHeader {
		return hdr, nil, 0, db.Corruptf("no header record — not an evaluation checkpoint")
	}
	return hdr, recs, len(data) - len(body) + it.Offset(), nil
}

// VerifyJournal fully parses an evaluation journal: the header must come
// first and every complete frame must pass its CRC. A truncated final
// frame is legal (it is on disk whenever a run is killed mid-append), so
// verification accepts it just as resume does.
func VerifyJournal(data []byte) error {
	_, _, _, err := parseCheckpoint(data)
	return err
}
