package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// entryBytes renders an entry file the way Put writes one, with the
// header's len= set to declLen.
func entryBytes(class, key string, payload []byte, declLen int) []byte {
	return []byte(fmt.Sprintf("%s\nclass=%s\nkey=%s\nlen=%d\ncrc32=%08x\n---\n%s",
		formatLine, class, key, declLen, crc32.ChecksumIEEE(payload), payload))
}

// FuzzStoreEntry feeds arbitrary bytes to readEntry as an entry file.
// No input may panic it, and any payload it accepts must be exactly the
// bytes after the header, with the length and CRC-32 the header
// declares.
func FuzzStoreEntry(f *testing.F) {
	p := []byte(`{"mw":76.5}`)
	f.Add(entryBytes("c", "k", p, len(p)))
	f.Add(entryBytes("c", "k", p, len(p)+1))
	f.Add(entryBytes("c", "k", p, 1<<50))
	f.Add(entryBytes("c", "k", p, -1))
	f.Add(entryBytes("c", "k", p[:4], len(p)))
	f.Add(entryBytes("other", "k", p, len(p)))
	f.Add([]byte(formatLine + "\n"))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "entry.art")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		payload, err := readEntry(path, "c", "k")
		if err != nil {
			return
		}
		head, body, ok := bytes.Cut(data, []byte("\n---\n"))
		if !ok {
			t.Fatalf("accepted an entry with no header terminator: %q", data)
		}
		wantLen, wantCRC := int64(-1), int64(-1)
		for _, l := range bytes.Split(head, []byte("\n")) {
			if v, ok := bytes.CutPrefix(l, []byte("len=")); ok {
				wantLen, _ = strconv.ParseInt(string(v), 10, 64)
			}
			if v, ok := bytes.CutPrefix(l, []byte("crc32=")); ok {
				wantCRC, _ = strconv.ParseInt(string(v), 16, 64)
			}
		}
		if int64(len(payload)) != wantLen {
			t.Fatalf("accepted a %d-byte payload under len=%d", len(payload), wantLen)
		}
		if int64(crc32.ChecksumIEEE(payload)) != wantCRC {
			t.Fatalf("accepted payload crc32 %08x under crc32=%x", crc32.ChecksumIEEE(payload), wantCRC)
		}
		if !bytes.Equal(payload, body) {
			t.Fatalf("payload %q is not the bytes after the header %q", payload, body)
		}
	})
}
