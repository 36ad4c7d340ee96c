// Airquality: IoT sensing-as-a-service, the metadata example from Section
// III-B of the paper. Sensor nodes publish PM2.5 readings with short valid
// times; subscribers query by type and location and the expired readings
// age out of both the metadata index and the storing nodes.
package main

import (
	"fmt"
	"log"
	"time"

	edgechain "repro"
	"repro/internal/geo"
)

func main() {
	cfg := edgechain.DefaultConfig(15)
	cfg.Seed = 11
	cfg.DataRatePerMin = 0
	cfg.DataValidFor = 8 * time.Minute // readings go stale quickly
	cfg.DataSize = 64 << 10            // 64 KB sensor batches

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
				sys.ProduceData(s, "AirQuality/PM2.5")
			}
		})
	}

	// A subscriber samples the index every 6 minutes: only unexpired
	// readings should be visible.
	const subscriber = 5
	var observations []int
	probe := func() {
		fresh := sys.Node(subscriber).FindMetadata(edgechain.MetadataQuery{
			TypePrefix: "AirQuality/",
		})
		observations = append(observations, len(fresh))
		fmt.Printf("[%6s] subscriber sees %d fresh readings\n",
			sys.Clock().Elapsed().Truncate(time.Second), len(fresh))
	}
	for m := 6; m <= 36; m += 6 {
		sys.Clock().AfterFunc(time.Duration(m)*time.Minute, probe)
	}

	// Geographic query at minute 20: readings near the subscriber.
	sys.Clock().AfterFunc(20*time.Minute, func() {
		me := sys.Network().Topology().Position(5)
		near := sys.Node(subscriber).FindMetadata(edgechain.MetadataQuery{
			TypePrefix:   "AirQuality/",
			Near:         geo.Point{X: me.X, Y: me.Y},
			WithinMeters: 120,
		})
		fmt.Printf("[%6s] %d readings within 120 m of the subscriber\n",
			sys.Clock().Elapsed().Truncate(time.Second), len(near))
	})

	sys.Run(40 * time.Minute)

	res := sys.Results()
	fmt.Printf("\nrun done: %d blocks, %d readings published, storage Gini %.3f\n",
		res.ChainHeight, res.DataGenerated, res.StorageGini)

	// The last probe runs after production stopped at minute 24 plus the
	// 8-minute valid time: everything must have expired.
	last := observations[len(observations)-1]
	if last != 0 {
		log.Fatalf("expiry failed: %d readings still visible at the end", last)
	}
	fmt.Println("expiry verified: no stale readings remain visible")
}
