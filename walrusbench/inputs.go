package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"walrus"
	"walrus/internal/dataset"
	"walrus/internal/imgio"
)

// Input streams: each workload draws its database, query and write
// images from separate streams of one seed, so query images never
// coincide with stored ones.
const (
	streamBase   = 1 // the starting database
	streamQuery  = 2 // query-by-image inputs
	streamWrite  = 3 // fresh images to ingest
	streamLadder = 4 // fresh images the serve-mixed ladder ingests
)

// splitmix is SplitMix64, used to derive independent per-image seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genImage renders image i of a stream. Every image has its own random
// source, so images can be drawn in any order and in parallel; categories
// cycle through all twelve and sizes through the dataset's three shapes.
func genImage(seed int64, stream, i int) *imgio.Image {
	cats := dataset.Categories()
	sizes := dataset.DefaultOptions().Sizes
	s := splitmix(splitmix(splitmix(uint64(seed))^uint64(stream)) ^ uint64(i))
	rng := rand.New(rand.NewSource(int64(s)))
	size := sizes[(i/len(cats))%len(sizes)]
	return dataset.Render(cats[i%len(cats)], rng, size[0], size[1])
}

// imageID names image i of a stream.
func imageID(stream, i int) string {
	return fmt.Sprintf("s%d-%06d", stream, i)
}

// genItems renders images [from, from+n) of a stream on two goroutines.
// With roundTrip each image goes through PPM encode and decode, so the
// stored pixels equal what an HTTP client would send.
func genItems(seed int64, stream, from, n int, roundTrip bool) ([]walrus.BatchItem, error) {
	items := make([]walrus.BatchItem, n)
	errs := make([]error, n)
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				im := genImage(seed, stream, from+k)
				if roundTrip {
					b, err := encodePPM(im)
					if err == nil {
						im, err = imgio.DecodePPM(bytes.NewReader(b))
					}
					errs[k] = err
				}
				items[k] = walrus.BatchItem{ID: imageID(stream, from+k), Image: im}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

func encodePPM(im *imgio.Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := imgio.EncodePPM(&buf, im); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
