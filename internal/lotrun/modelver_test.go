package lotrun

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/floor"
)

func envelopeLine(t *testing.T, rec any) []byte {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	crc := crc32.ChecksumIEEE(raw)
	line, err := json.Marshal(crcEnvelope{Crc: &crc, Rec: raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// TestJournalGarbageModelVersionHeader: a header whose model version is
// garbage — wrong JSON type, or negative — must be rejected by the
// torn-tail-tolerant reader as an invalid header, cleanly, never panicking
// and never replaying the device records that follow it.
func TestJournalGarbageModelVersionHeader(t *testing.T) {
	dir := t.TempDir()
	devRec := envelopeLine(t, journalRecord{Type: "device", Result: floor.DeviceResult{
		Index: 0, Bin: floor.BinPass, Insertions: 1,
	}})
	cases := []struct {
		name   string
		header []byte
	}{
		{"string-version", envelopeLine(t, map[string]any{
			"type": "header", "version": JournalVersion, "lot_seed": 41,
			"devices": 4, "model_version": "abc",
		})},
		{"negative-version", envelopeLine(t, map[string]any{
			"type": "header", "version": JournalVersion, "lot_seed": 41,
			"devices": 4, "model_version": -1,
		})},
		{"float-version", envelopeLine(t, map[string]any{
			"type": "header", "version": JournalVersion, "lot_seed": 41,
			"devices": 4, "model_version": 2.5,
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".journal")
			if err := os.WriteFile(path, append(append([]byte{}, tc.header...), devRec...), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, _, err := ReplayJournal(path)
			if err == nil {
				t.Fatal("garbage model-version header accepted")
			}
		})
	}
}
