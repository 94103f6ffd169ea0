package lotrun

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/floor"
)

// TestJournalCRCDetectsBitFlip: a flipped digit inside a committed record
// leaves the line perfectly valid JSON — only the CRC envelope catches it.
// The tampered record must be skipped as corrupt, not silently replayed
// with the wrong value.
func TestJournalCRCDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lot.journal")
	writeTestJournal(t, path, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit of device 1's predicted gain (12.25 -> 12.35). The
	// line still parses; only the checksum knows.
	lines := bytes.Split(data, []byte("\n"))
	tampered := false
	for i, ln := range lines {
		if bytes.Contains(ln, []byte(`"Index":1,`)) {
			lines[i] = bytes.Replace(ln, []byte("12.25"), []byte("12.35"), 1)
			tampered = !bytes.Equal(lines[i], ln)
		}
	}
	if !tampered {
		t.Fatal("test fixture drifted: device 1's record no longer carries 12.25")
	}
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, results, _, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Corrupt != 1 {
		t.Fatalf("stats %+v, want 2 records 1 corrupt", stats)
	}
	if _, ok := results[1]; ok {
		t.Fatal("the bit-flipped record replayed instead of being caught by its CRC")
	}
	for _, i := range []int{0, 2} {
		if got := results[i]; got.Pred != mkResult(i, floor.BinPass).Pred {
			t.Fatalf("untampered record %d mangled: %+v", i, got)
		}
	}
}

// TestJournalLegacyCRCLessAccepted: journals written before the CRC
// envelope carry records directly on each line; the reader must replay
// them, and a resumed journal may append CRC'd lines after them.
func TestJournalLegacyCRCLessAccepted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lot.journal")
	legacy := `{"type":"header","version":1,"lot_seed":9,"devices":100,"fault_p":0.1}
{"type":"device","result":{"Index":0,"Bin":0,"Insertions":1,"CleanD":0.5,"TruePass":true}}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, results, validEnd, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.LotSeed != 9 || hdr.Fingerprint != 0 {
		t.Fatalf("legacy header mangled: %+v", hdr)
	}
	if stats.Records != 1 || stats.Corrupt != 0 {
		t.Fatalf("legacy stats %+v, want 1 record 0 corrupt", stats)
	}
	if results[0].CleanD != 0.5 {
		t.Fatalf("legacy record mangled: %+v", results[0])
	}

	// Mixed journal: CRC'd records appended after legacy lines.
	j, err := ResumeJournal(path, validEnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(mkResult(1, floor.BinFail)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, results, _, stats, err = ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || results[1].Bin != floor.BinFail {
		t.Fatalf("mixed journal: stats %+v results[1] %+v", stats, results[1])
	}
}
