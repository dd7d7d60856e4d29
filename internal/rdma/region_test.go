package rdma

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestRegisterMemoryRegionShape pins the region contract: exactly the
// registered size, zeroed even over reused heap memory, no extra heap
// bytes, and a bounded mapping count however many regions come and go.
// Whether the interior really sits on huge pages depends on the host
// (THP mode, fragmentation), so that is logged, not asserted.
func TestRegisterMemoryRegionShape(t *testing.T) {
	for _, size := range []int{0, 1, 4 << 10, 2<<20 - 1, 4 << 20, 4<<20 + 4<<10, 32 << 20} {
		t.Run(strconv.Itoa(size), func(t *testing.T) {
			// A same-size buffer full of 0xFF, dropped and collected, so
			// the region is likely to reuse its span.
			dirty := make([]byte, size)
			for i := range dirty {
				dirty[i] = 0xFF
			}
			dirtyAt := uintptr(unsafe.Pointer(unsafe.SliceData(dirty)))
			dirty = nil
			runtime.GC()

			m := NewDevice().RegisterMemory(size)
			if len(m.Buf) != size || cap(m.Buf) != size {
				t.Fatalf("len %d cap %d, want %d", len(m.Buf), cap(m.Buf), size)
			}
			if i := firstNonZero(m.Buf); i >= 0 {
				t.Fatalf("byte %d = %#x, want a zeroed region", i, m.Buf[i])
			}
			if size == 0 {
				return
			}
			at := uintptr(unsafe.Pointer(unsafe.SliceData(m.Buf)))
			t.Logf("reused the dropped buffer's memory: %v", at == dirtyAt)
			if runtime.GOOS == "linux" && size >= 4<<20 {
				// A read of an untouched page maps the zero page; write
				// to fault real ones.
				for i := 0; i < size; i += 4 << 10 {
					m.Buf[i] = 1
				}
				if kib, err := anonHugeKiB(at, size); err == nil {
					t.Logf("AnonHugePages over the region's mappings: %d of %d KiB", kib, size>>10)
				}
			}
		})
	}

	t.Run("heap bytes", func(t *testing.T) {
		const size = 32 << 20
		d := NewDevice()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := d.RegisterMemory(size)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= size+64<<10 {
			t.Fatalf("RegisterMemory(%d) allocated %d heap bytes, want < size + 64 KiB", size, got)
		}
		runtime.KeepAlive(m)
	})

	t.Run("mapping count", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("reads /proc/self/maps")
		}
		runtime.GC()
		before, err := mapsLines()
		if err != nil {
			t.Fatal(err)
		}
		for range 300 {
			m := NewDevice().RegisterMemory(4 << 20)
			m.Buf[len(m.Buf)/2] = 1
			runtime.GC()
		}
		after, err := mapsLines()
		if err != nil {
			t.Fatal(err)
		}
		if after-before > 16 {
			t.Fatalf("/proc/self/maps grew from %d to %d lines over 300 regions, want at most 16", before, after)
		}
	})
}

// firstNonZero returns the index of b's first non-zero byte, or -1.
func firstNonZero(b []byte) int {
	var zero [64 << 10]byte
	for off := 0; off < len(b); off += len(zero) {
		chunk := b[off:min(off+len(zero), len(b))]
		if !bytes.Equal(chunk, zero[:len(chunk)]) {
			for i, c := range chunk {
				if c != 0 {
					return off + i
				}
			}
		}
	}
	return -1
}

func mapsLines() (int, error) {
	b, err := os.ReadFile("/proc/self/maps")
	return bytes.Count(b, []byte{'\n'}), err
}

// anonHugeKiB sums AnonHugePages over the /proc/self/smaps mappings that
// overlap [at, at+size).
func anonHugeKiB(at uintptr, size int) (int, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	end := at + uintptr(size)
	var kib int
	overlaps := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x", &lo, &hi); n == 2 {
			overlaps = lo < end && at < hi
			continue
		}
		if v, ok := strings.CutPrefix(line, "AnonHugePages:"); ok && overlaps {
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), " kB"))
			if err != nil {
				return 0, err
			}
			kib += n
		}
	}
	return kib, sc.Err()
}
