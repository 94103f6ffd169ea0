package lotrun

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/diskfault"
	"repro/internal/floor"
	"repro/internal/lna"
)

func mkResult(index int, bin floor.Bin) floor.DeviceResult {
	return floor.DeviceResult{
		Index: index, Bin: bin, Insertions: 1, CleanD: 0.5,
		Faults:   []floor.FaultKind{floor.FaultNone},
		Verdicts: []floor.Verdict{floor.VerdictClean},
		Pred:     lna.Specs{GainDB: 12.25, NFDB: 3.5, IIP3DBm: -8.125},
		TruePass: true,
	}
}

func writeTestJournal(t *testing.T, path string, n int) {
	t.Helper()
	j, err := CreateJournalFS(diskfault.OS, path, JournalHeader{
		Type: "header", Version: JournalVersion, LotSeed: 9, Devices: 100, FaultP: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < n; i++ {
		if err := j.Commit(mkResult(i, floor.BinPass)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalRoundTrip: committed records replay exactly, including float
// spec predictions (JSON round-trips Go float64 bit-exactly).
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lot.journal")
	writeTestJournal(t, path, 5)
	hdr, results, _, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.LotSeed != 9 || hdr.Devices != 100 || hdr.FaultP != 0.1 {
		t.Fatalf("header mangled: %+v", hdr)
	}
	if stats.Records != 5 || stats.Corrupt != 0 || stats.Duplicates != 0 {
		t.Fatalf("stats %+v", stats)
	}
	for i := 0; i < 5; i++ {
		got, ok := results[i]
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		want := mkResult(i, floor.BinPass)
		if got.Pred != want.Pred || got.Bin != want.Bin || got.CleanD != want.CleanD {
			t.Fatalf("record %d mangled: %+v", i, got)
		}
	}
}

// TestJournalTruncatedTail: a crash mid-write leaves a partial last line;
// replay must recover every fully committed record and resume appending on
// a fresh line.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lot.journal")
	writeTestJournal(t, path, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the last record (drop 10 bytes).
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	hdr, results, validEnd, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.Corrupt != 1 {
		t.Fatalf("truncated tail: stats %+v, want 3 records 1 corrupt", stats)
	}
	if _, ok := results[3]; ok {
		t.Fatal("the torn record must not replay")
	}
	if hdr.Devices != 100 {
		t.Fatalf("header lost: %+v", hdr)
	}

	// Resume truncates the torn tail and appends cleanly.
	j, err := ResumeJournalFS(diskfault.OS, path, validEnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(mkResult(3, floor.BinFail)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, results, _, stats, err = ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 4 || stats.Corrupt != 0 {
		t.Fatalf("after resume: stats %+v", stats)
	}
	if results[3].Bin != floor.BinFail {
		t.Fatalf("re-screened record lost: %+v", results[3])
	}
}

// TestJournalGarbageAndDuplicates: garbage bytes between records are
// skipped, a well-formed record line without its CRC envelope counts as
// corrupt and is not replayed, and a device journaled twice keeps its
// first committed record — never a double count.
func TestJournalGarbageAndDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lot.journal")
	writeTestJournal(t, path, 2)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const bare = `{"type":"device","result":{"Index":5,"Bin":0,"Insertions":1,"CleanD":0.5,"TruePass":true}}` + "\n"
	if _, err := f.WriteString("\x00\xffgarbage not json\n{\"type\":\"device\"\n" + bare); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, results, validEnd, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Corrupt != 3 {
		t.Fatalf("garbage: stats %+v, want 2 records 3 corrupt", stats)
	}
	if _, ok := results[5]; ok {
		t.Fatal("a record line without a CRC envelope replayed")
	}
	j, err := ResumeJournalFS(diskfault.OS, path, validEnd)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate of device 1 with a different bin, then a fresh device 2.
	if err := j.Commit(mkResult(1, floor.BinFail)); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(mkResult(2, floor.BinFallback)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, results, _, stats, err = ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 {
		t.Fatalf("replayed %d records, want 3 (no double count)", stats.Records)
	}
	if stats.Duplicates != 1 {
		t.Fatalf("duplicates %d, want 1", stats.Duplicates)
	}
	if results[1].Bin != floor.BinPass {
		t.Fatalf("device 1 double-counted: first committed record must win, got bin %v", results[1].Bin)
	}
	if results[2].Bin != floor.BinFallback {
		t.Fatalf("record after garbage lost: %+v", results[2])
	}
}

// TestJournalRejectsInvalidRecords: records whose payload cannot be a
// committed device (index out of range, zero insertions, bogus bin) are
// treated as corruption, not replayed.
func TestJournalRejectsInvalidRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lot.journal")
	j, err := CreateJournalFS(diskfault.OS, path, JournalHeader{
		Type: "header", Version: JournalVersion, LotSeed: 1, Devices: 3, FaultP: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := []floor.DeviceResult{
		{Index: -1, Insertions: 1},
		{Index: 3, Insertions: 1},         // out of range for Devices: 3
		{Index: 0, Insertions: 0},         // never inserted
		{Index: 1, Insertions: 1, Bin: 9}, // bogus bin
	}
	for _, r := range bad {
		if err := j.Commit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(mkResult(2, floor.BinPass)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, results, _, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || stats.Corrupt != len(bad) {
		t.Fatalf("stats %+v, want 1 record %d corrupt", stats, len(bad))
	}
	if _, ok := results[2]; !ok {
		t.Fatal("valid record lost among invalid ones")
	}
}

// TestJournalNoHeader: a journal without a valid header cannot identify
// its lot and must refuse to replay.
func TestJournalNoHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lot.journal")
	if err := os.WriteFile(path, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReplayJournal(path); err == nil {
		t.Fatal("headerless journal must be refused")
	}
	if _, _, _, _, err := ReplayJournal(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing journal must be refused")
	}
}
