package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// referenceSeed is the seed the committed artifacts in results/ were
// made with; the reference checks apply to it only.
const referenceSeed = 1

// check is one checked output: an operation of the run.
type check struct {
	name string
	ok   bool
}

// scaleRef is the simulated outcome of one N in results/scale.txt.
type scaleRef struct {
	events uint64
	supers int
	ratio  string // as printed, %.2f
}

// loadScaleRef reads the rows for population n from results/scale.txt.
// Every shard count must report the same outcome; it is returned once.
func loadScaleRef(root string, n int) (scaleRef, error) {
	path := filepath.Join(root, "results", "scale.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		return scaleRef{}, err
	}
	var ref scaleRef
	found := false
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 13 || f[0] != strconv.Itoa(n) {
			continue
		}
		ev, err1 := strconv.ParseUint(f[4], 10, 64)
		su, err2 := strconv.Atoi(f[11])
		if err1 != nil || err2 != nil {
			return scaleRef{}, fmt.Errorf("%s: bad row %q", path, line)
		}
		row := scaleRef{events: ev, supers: su, ratio: f[12]}
		if found && row != ref {
			return scaleRef{}, fmt.Errorf("%s: rows for N=%d disagree", path, n)
		}
		ref, found = row, true
	}
	if !found {
		return scaleRef{}, fmt.Errorf("%s: no row for N=%d", path, n)
	}
	return ref, nil
}

// loadPaperRefs returns the digests of the committed paper-repro
// artifacts.
func loadPaperRefs(root string) (map[string]digest, error) {
	refs := map[string]digest{}
	for _, name := range paperArtifacts {
		data, err := os.ReadFile(filepath.Join(root, "results", name))
		if err != nil {
			return nil, err
		}
		refs[name] = sha256.Sum256(data)
	}
	return refs, nil
}
