package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// startProfile begins CPU profiling into path; the returned function stops
// it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuShares folds the profile at path into each layer's share of the
// sampled CPU time, through `go tool pprof -traces`.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return foldTraces(string(text))
}

// foldTraces attributes every sample of a `pprof -traces` listing to the
// innermost frame on its stack that belongs to one of this repository's
// internal packages; a stack with none goes to the harness ("bench") if it
// has a main.* frame and to "runtime" otherwise. The listing puts the
// sample's value and innermost frame on one line and the callers below it,
// samples separated by dashed lines.
func foldTraces(text string) (map[string]float64, error) {
	totals := make(map[string]time.Duration)
	var all time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			totals[layerOf(frames)] += value
			all += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: no frame after value in %q", line)
			}
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			value = v
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	if all == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(totals))
	for layer, d := range totals {
		shares[layer] = float64(d) / float64(all)
	}
	return shares, nil
}

// parseSampleValue reads pprof's "10ms", "1.52s" or "250us".
func parseSampleValue(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(n), nil
	}
	return 0, fmt.Errorf("pprof traces: bad sample value %q", s)
}

const internalPrefix = "repro/internal/"

// layerOf names the layer a stack (innermost frame first) is charged to.
func layerOf(frames []string) string {
	harness := false
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			harness = true
		}
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if dot := strings.IndexByte(rest, '.'); dot >= 0 {
			pkg = rest[:dot]
		}
		pkg = pkg[strings.LastIndexByte(pkg, '/')+1:] // p2p/memnet → memnet
		for _, known := range cpuLayers {
			if pkg == known {
				return pkg
			}
		}
		return "other"
	}
	if harness {
		return "bench"
	}
	return "runtime"
}
