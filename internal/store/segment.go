package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/block"
)

// WAL segmentation (DESIGN.md §14). Blocks append into files named
// wal3-<firstIndex>.log; a segment seals after Options.SegmentBlocks
// records and compaction below the prune horizon unlinks whole sealed
// files instead of rewriting one giant log. Recovery stitches the
// segments back together in index order, enforcing that each file starts
// at the index its name claims and continues exactly where the previous
// one stopped; any discontinuity (e.g. stale files surviving a crash
// mid-Reset) cuts the log there and unlinks the orphaned tail.

const (
	segmentPrefix = "wal3-"
	segmentSuffix = ".log"
	// DefaultSegmentBlocks is the per-segment seal threshold.
	DefaultSegmentBlocks = 512
)

// segmentInfo describes one on-disk WAL segment file.
type segmentInfo struct {
	start  uint64 // index of the first block in the file
	blocks int    // decoded block count
	bytes  int64  // valid byte length
	path   string
}

func (s segmentInfo) lastIndex() uint64 { return s.start + uint64(s.blocks) - 1 }

func segmentPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", segmentPrefix, start, segmentSuffix))
}

// parseSegmentStart extracts the first-block index from a segment file
// name, false for unrelated files.
func parseSegmentStart(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	if mid == "" {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// syncDir fsyncs a directory so renames and unlinks inside it are durable
// before the caller proceeds (the classic create-then-crash hole that the
// old single-file Reset left open).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: dir sync: %w", err)
	}
	return nil
}

// listSegments returns the segment files in dir sorted by start index.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list wal segments: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		start, ok := parseSegmentStart(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segmentInfo{start: start, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// recoverSegments scans every segment in index order, truncating a torn
// tail record and cutting the log at the first discontinuity: a segment
// whose first block index disagrees with its file name, or that does not
// continue exactly where the previous segment stopped (stale files from a
// crash mid-Reset). Everything at and after the cut is unlinked so the
// next crash cannot resurrect it. Returns the surviving blocks and the
// on-disk layout they live in.
func recoverSegments(dir string) ([]*block.Block, []segmentInfo, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	var (
		out    []*block.Block
		layout []segmentInfo
	)
	cutFrom := -1
	for i := range segs {
		seg := &segs[i]
		blocks, validSize, err := ScanWAL(seg.path)
		if err != nil {
			return nil, nil, err
		}
		st, err := os.Stat(seg.path)
		if err != nil {
			return nil, nil, fmt.Errorf("store: stat wal segment: %w", err)
		}
		torn := st.Size() > validSize
		switch {
		case len(blocks) == 0 && i == len(segs)-1 && !torn:
			// Empty final segment: a crash right after a roll. Harmless.
		case len(blocks) == 0:
			// Empty (or fully corrupt) non-final segment: continuity across
			// it is unknowable, cut here.
			cutFrom = i
		case blocks[0].Index != seg.start:
			cutFrom = i
		case len(out) > 0 && blocks[0].Index != out[len(out)-1].Index+1:
			cutFrom = i
		}
		if cutFrom >= 0 {
			break
		}
		if torn {
			if err := os.Truncate(seg.path, validSize); err != nil {
				return nil, nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
			// A torn record mid-log orphans every later segment.
			cutFrom = i + 1
		}
		seg.blocks = len(blocks)
		seg.bytes = validSize
		out = append(out, blocks...)
		layout = append(layout, *seg)
		if cutFrom >= 0 {
			break
		}
	}
	if cutFrom >= 0 && cutFrom < len(segs) {
		for _, s := range segs[cutFrom:] {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				return nil, nil, fmt.Errorf("store: drop orphaned wal segment: %w", err)
			}
		}
		if err := syncDir(dir); err != nil {
			return nil, nil, err
		}
	}
	return out, layout, nil
}

// writeSegments atomically replaces the directory's segment set with one
// holding exactly the given blocks, segBlocks per file. New files land via
// temp + rename before stale ones are unlinked, and the directory is
// fsynced last; a crash anywhere leaves a set that recoverSegments cuts
// back to a valid prefix.
func writeSegments(dir string, blocks []*block.Block, segBlocks int) ([]segmentInfo, error) {
	if segBlocks <= 0 {
		segBlocks = DefaultSegmentBlocks
	}
	existing, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var layout []segmentInfo
	want := make(map[string]bool)
	for off := 0; off < len(blocks); off += segBlocks {
		end := off + segBlocks
		if end > len(blocks) {
			end = len(blocks)
		}
		chunk := blocks[off:end]
		path := segmentPath(dir, chunk[0].Index)
		if err := WriteWAL(path, chunk); err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("store: stat wal segment: %w", err)
		}
		layout = append(layout, segmentInfo{
			start:  chunk[0].Index,
			blocks: len(chunk),
			bytes:  st.Size(),
			path:   path,
		})
		want[path] = true
	}
	removed := false
	for _, s := range existing {
		if want[s.path] {
			continue
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: drop stale wal segment: %w", err)
		}
		removed = true
	}
	if removed {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	return layout, nil
}
