// Airquality: IoT sensing-as-a-service, the metadata example from Section
// III-B of the paper. Sensor nodes publish PM2.5 readings that stay fresh
// for a few minutes; a subscriber queries its chain replica by type,
// freshness and producer, so stale readings drop out of what it sees.
package main

import (
	"fmt"
	"log"
	"time"

	edgechain "repro"
)

// freshFor is how long a reading stays worth reading.
const freshFor = 8 * time.Minute

func main() {
	cfg := edgechain.DefaultConfig(15)
	cfg.Seed = 11
	cfg.DataRatePerMin = 0
	cfg.DataSize = 64 << 10 // 64 KB sensor batches

	sys, err := edgechain.NewSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Three sensor nodes publish a reading every 3 minutes.
	sensors := []int{2, 7, 12}
	for i := 0; i < 8; i++ {
		at := time.Duration(i+1) * 3 * time.Minute
		sys.Clock().AfterFunc(at, func() {
			for _, s := range sensors {
				if _, err := sys.ProduceData(s, "AirQuality/PM2.5"); err != nil {
					log.Fatal(err)
				}
			}
		})
	}

	// A subscriber samples the index every 6 minutes: only readings
	// produced within the freshness window count.
	const subscriber = 5
	fresh := func() edgechain.MetadataQuery {
		return edgechain.MetadataQuery{
			TypePrefix:    "AirQuality/",
			ProducedAfter: sys.Clock().Elapsed() - freshFor,
		}
	}
	var observations []int
	probe := func() {
		seen := sys.FindMetadata(subscriber, fresh())
		observations = append(observations, len(seen))
		fmt.Printf("[%6s] subscriber sees %d fresh readings\n",
			sys.Clock().Elapsed().Truncate(time.Second), len(seen))
	}
	for m := 6; m <= 36; m += 6 {
		sys.Clock().AfterFunc(time.Duration(m)*time.Minute, probe)
	}

	// At minute 20 the subscriber narrows the query to the sensor fewest
	// radio hops away from it.
	sys.Clock().AfterFunc(20*time.Minute, func() {
		nearest := sensors[0]
		for _, s := range sensors {
			if sys.Radio().Hops(subscriber, s) < sys.Radio().Hops(subscriber, nearest) {
				nearest = s
			}
		}
		q := fresh()
		q.Producer = sys.Cluster().Accounts()[nearest]
		fmt.Printf("[%6s] %d fresh readings from sensor %d, %d hops from the subscriber\n",
			sys.Clock().Elapsed().Truncate(time.Second), len(sys.FindMetadata(subscriber, q)),
			nearest, sys.Radio().Hops(subscriber, nearest))
	})

	sys.Run(40 * time.Minute)

	res := sys.Results()
	fmt.Printf("\nrun done: %d blocks, %d readings published, storage Gini %.3f\n",
		res.ChainHeight, res.DataGenerated, res.StorageGini)

	// The last probe runs after production stopped at minute 24 plus the
	// 8-minute freshness window: nothing may still count as fresh.
	last := observations[len(observations)-1]
	if last != 0 {
		log.Fatalf("freshness failed: %d readings still visible at the end", last)
	}
	fmt.Println("freshness verified: no stale readings remain visible")
}
