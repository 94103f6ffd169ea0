package lotrun

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/diskfault"
	"repro/internal/floor"
)

// The lot journal is a JSON-lines file: one header line, then one line per
// completed device, each fsync'd before the result is considered
// committed. A SIGKILL mid-lot therefore loses at most the record being
// written — which replay treats as corruption and re-screens — and never a
// committed device. Because every device's randomness derives from
// (lot seed, index), re-screening an uncommitted device on resume
// reproduces exactly the result the killed run was about to write.
//
// Each line written today is a CRC envelope `{"crc":C,"rec":R}` where C is
// the IEEE CRC32 of the raw bytes of R: a torn or scribbled-over write
// that still happens to parse as JSON (a flipped digit inside a float, a
// partial overwrite landing on a syntactically valid prefix) is detected
// by the checksum instead of being silently committed. A line without a
// verifying envelope is corrupt, whatever it parses as.
//
// All file access goes through the diskfault.FS seam: production uses
// diskfault.OS, fault-injection tests substitute a seeded FaultFS. The
// journal additionally self-repairs after a failed write — a torn partial
// line is truncated away (or newline-terminated when truncation itself
// fails) before the record is retried — so a transient I/O error never
// leaves a committed record unreadable.
//
// The journal only speaks (lot identity, DeviceResult): which workers or
// remote sites screened the devices leaves no trace in it, so a lot
// started on local workers can be resumed on remote sites and vice versa.
const JournalVersion = 1

// ErrJournalDegraded marks a lot that ran (or finished) in degraded
// journal-less mode: the journal failed persistently, the lot's bins are
// still complete and deterministic, but crash-resume is no longer
// possible for this lot. It is surfaced in LotReport, /statusz and the
// client wire protocol rather than aborting the lot.
var ErrJournalDegraded = errors.New("lotrun: journal degraded — lot ran journal-less, resume disabled")

// JournalHeader is the first line of a lot journal: enough identity to
// refuse resuming the wrong lot.
type JournalHeader struct {
	Type    string  `json:"type"` // "header"
	Version int     `json:"version"`
	LotSeed int64   `json:"lot_seed"`
	Devices int     `json:"devices"`
	FaultP  float64 `json:"fault_p"` // total per-insertion fault probability
	// Fingerprint is the screening engine's floor.Engine.Fingerprint —
	// calibration, gate and policy identity. Resuming under an engine
	// that hashes differently is refused with ErrModelMismatch.
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	// ModelVersion is the calibration registry version the lot is pinned
	// to (0 = the process's base model). A lot keeps its version for
	// life; resuming under a different one is refused with
	// ErrModelMismatch.
	ModelVersion int `json:"model_version,omitempty"`
}

// journalRecord is one committed device line.
type journalRecord struct {
	Type   string             `json:"type"` // "device"
	Result floor.DeviceResult `json:"result"`
}

// crcEnvelope wraps every written line: Crc is the IEEE CRC32 of the raw
// Rec bytes.
type crcEnvelope struct {
	Crc *uint32         `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// ReplayStats summarizes what journal replay found.
type ReplayStats struct {
	// Records is the number of valid device records replayed.
	Records int
	// Corrupt counts unparseable or invalid lines skipped (a truncated
	// tail from a crash mid-write, or a CRC mismatch, lands here).
	Corrupt int
	// Duplicates counts device indices journaled more than once; the
	// first committed record wins, so a device is never double-counted.
	Duplicates int
}

// RetryPolicy bounds the journal's retry-with-backoff on commit failure.
type RetryPolicy struct {
	// Attempts is the total number of tries per record (default 3).
	Attempts int
	// Backoff is the sleep before the first retry, doubling after each
	// (default 1ms).
	Backoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = time.Millisecond
	}
	return p
}

// Journal is the append side. Writes go through a single collector
// goroutine, so no locking is needed here.
type Journal struct {
	f diskfault.File
	// off is the file offset at the end of the last committed line — the
	// truncation target when a failed write leaves a partial line behind.
	off int64
	// dirty marks that the last write failed and the tail may hold a
	// torn partial line that must be repaired before the next record.
	dirty bool
}

// CreateJournalFS starts a fresh journal (truncating any previous file),
// commits the header, and fsyncs the parent directory so a crash between
// create and the first device commit cannot lose the file entirely.
func CreateJournalFS(fsys diskfault.FS, path string, hdr JournalHeader) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lotrun: create journal: %w", err)
	}
	j := &Journal{f: f}
	if err := j.writeLine(hdr); err != nil {
		f.Close()
		return nil, err
	}
	// Directory fsync makes the journal's existence itself durable —
	// the same contract modelreg gives its record renames.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lotrun: fsync journal dir: %w", err)
	}
	return j, nil
}

func (j *Journal) writeLine(v any) error {
	rec, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("lotrun: journal marshal: %w", err)
	}
	crc := crc32.ChecksumIEEE(rec)
	data, err := json.Marshal(crcEnvelope{Crc: &crc, Rec: rec})
	if err != nil {
		return fmt.Errorf("lotrun: journal envelope: %w", err)
	}
	data = append(data, '\n')
	if j.dirty {
		// A previous write failed and may have left a torn partial line
		// (or an unsynced whole line). Truncate back to the last
		// committed offset so the retry starts on a clean boundary; if
		// truncation itself fails, terminate the garbage line with a
		// newline instead — replay counts it corrupt and skips it, and
		// the retried record still lands parseable on its own line.
		if j.f.Truncate(j.off) == nil {
			if _, err := j.f.Seek(j.off, io.SeekStart); err == nil {
				j.dirty = false
			}
		}
		if j.dirty {
			data = append([]byte{'\n'}, data...)
		}
	}
	if _, err := j.f.Write(data); err != nil {
		j.dirty = true
		return fmt.Errorf("lotrun: journal write: %w", err)
	}
	// fsync per record: the crash-safety contract. The cost is modeled
	// into the lot economics as RetestLoad.JournalS.
	if err := j.f.Sync(); err != nil {
		// The bytes were written but durability is unknown; mark dirty so
		// a retry truncates and rewrites rather than duplicating.
		j.dirty = true
		return fmt.Errorf("lotrun: journal fsync: %w", err)
	}
	j.dirty = false
	if pos, err := j.f.Seek(0, io.SeekCurrent); err == nil {
		j.off = pos
	}
	return nil
}

// Commit appends one device result.
func (j *Journal) Commit(res floor.DeviceResult) error {
	return j.writeLine(journalRecord{Type: "device", Result: res})
}

// CommitRetry appends one device result with bounded retry-with-backoff:
// transient I/O faults (a flaky fsync, a torn write) are absorbed here;
// only a persistently failing journal surfaces an error, at which point
// the caller decides between aborting and degrading to journal-less mode.
func (j *Journal) CommitRetry(res floor.DeviceResult, pol RetryPolicy) error {
	pol = pol.withDefaults()
	backoff := pol.Backoff
	var err error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = j.Commit(res); err == nil {
			return nil
		}
	}
	return err
}

// Close closes the underlying file (committed records are already synced).
func (j *Journal) Close() error { return j.f.Close() }

// validResult rejects records whose payload cannot be a committed device:
// replaying them would corrupt the lot accounting.
func validResult(res floor.DeviceResult, devices int) bool {
	return res.Index >= 0 && res.Index < devices &&
		res.Insertions >= 1 &&
		res.Bin >= floor.BinPass && res.Bin <= floor.BinFallback
}

// unwrapLine returns the record payload of one journal line: the CRC
// envelope's Rec when the checksum verifies, and nil when the line is
// corrupt.
func unwrapLine(line []byte) []byte {
	var env crcEnvelope
	if json.Unmarshal(line, &env) != nil || env.Rec == nil || env.Crc == nil ||
		crc32.ChecksumIEEE(env.Rec) != *env.Crc {
		return nil
	}
	return env.Rec
}

// ReplayJournal reads a journal on the real filesystem.
func ReplayJournal(path string) (JournalHeader, map[int]floor.DeviceResult, int64, ReplayStats, error) {
	return ReplayJournalFS(diskfault.OS, path)
}

// ReplayJournalFS reads a journal tolerantly: garbage lines,
// CRC-mismatched lines and a truncated last line are skipped (counted in
// stats.Corrupt), duplicate device indices keep the first committed
// record, and the returned offset is the end of the last valid line — the
// point a resumed journal truncates to before appending, so a torn tail
// can never corrupt later records.
func ReplayJournalFS(fsys diskfault.FS, path string) (JournalHeader, map[int]floor.DeviceResult, int64, ReplayStats, error) {
	var hdr JournalHeader
	var stats ReplayStats
	results := make(map[int]floor.DeviceResult)

	f, err := fsys.Open(path)
	if err != nil {
		return hdr, nil, 0, stats, fmt.Errorf("lotrun: open journal: %w", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	var offset, validEnd int64
	haveHeader := false
	for {
		line, err := r.ReadBytes('\n')
		offset += int64(len(line))
		if len(line) > 0 {
			ok := false
			if rec := unwrapLine(line); rec != nil {
				if !haveHeader {
					// The header must be the first valid line.
					var h JournalHeader
					if json.Unmarshal(rec, &h) == nil && h.Type == "header" &&
						h.Version == JournalVersion && h.Devices > 0 && h.ModelVersion >= 0 {
						hdr = h
						haveHeader = true
						ok = true
					}
				} else {
					var jr journalRecord
					if json.Unmarshal(rec, &jr) == nil && jr.Type == "device" &&
						validResult(jr.Result, hdr.Devices) {
						if _, dup := results[jr.Result.Index]; dup {
							stats.Duplicates++
						} else {
							results[jr.Result.Index] = jr.Result
							stats.Records++
						}
						ok = true
					}
				}
			}
			if ok {
				validEnd = offset
			} else {
				stats.Corrupt++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return hdr, nil, 0, stats, fmt.Errorf("lotrun: read journal: %w", err)
		}
	}
	if !haveHeader {
		return hdr, nil, 0, stats, fmt.Errorf("lotrun: journal %s has no valid header", path)
	}
	return hdr, results, validEnd, stats, nil
}

// ResumeJournalFS reopens a journal for appending, truncated to the end
// of its last valid line so new records always start on a fresh line.
func ResumeJournalFS(fsys diskfault.FS, path string, validEnd int64) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lotrun: reopen journal: %w", err)
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("lotrun: truncate journal tail: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("lotrun: seek journal: %w", err)
	}
	return &Journal{f: f, off: validEnd}, nil
}
