// Command hostref is the benchmark's reference task: a fixed amount of
// work in the style of the analyzer's own — building strings, maps and
// pointer trees, walking and sorting them, and collecting the garbage —
// split into chunks that GOMAXPROCS goroutines share, as `-workers 0`
// shares entries. It takes about 100 ms on the 2-vCPU host the benchmark
// was written on.
//
// The benchmark runs it as a fresh process next to every op it times and
// divides the op's time by the reference's, so that the host's speed,
// which drifts by tens of percent on a shared machine, cancels out of the
// gated metrics. It does not depend on the analyzer, so a change to the
// analyzer moves the quotient and not the divisor; a change to this file
// rescales every normalized metric and needs a new baseline.
//
// It prints a checksum of the work, which the benchmark compares across
// runs.
package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
)

const (
	chunks    = 8
	chunkSize = 15000
)

type node struct {
	left, right *node
	key         int
	name        string
}

func insert(n *node, key int, name string) *node {
	if n == nil {
		return &node{key: key, name: name}
	}
	if key < n.key {
		n.left = insert(n.left, key, name)
	} else {
		n.right = insert(n.right, key, name)
	}
	return n
}

func walk(n *node) int {
	if n == nil {
		return 0
	}
	return walk(n.left) + walk(n.right) + len(n.name)
}

// chunk is one unit of work: chunkSize pseudo-random names put into a map,
// a binary search tree and a slice, then walked and sorted.
func chunk(c int) uint64 {
	x := uint64(c + 1)
	byName := make(map[string][]int)
	var root *node
	var names []string
	for i := 0; i < chunkSize; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		name := "k" + strconv.FormatUint(x%100000, 36)
		byName[name] = append(byName[name], i)
		root = insert(root, int(x%1000003), name)
		names = append(names, name)
	}
	sort.Strings(names)
	return uint64(walk(root)) + uint64(len(byName))<<20 + uint64(len(names[0]))<<40
}

func main() {
	work := make(chan int, chunks)
	for c := 0; c < chunks; c++ {
		work <- c
	}
	close(work)
	sums := make([]uint64, chunks)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				sums[c] = chunk(c)
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for _, s := range sums {
		sum = sum*31 + s
	}
	fmt.Println(sum)
}
