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
