package main

import (
	"bytes"
	"fmt"

	"bgpworms/internal/core"
	"bgpworms/internal/gen"
)

// The synthetic feed's traffic make-up is calibrated against the medium
// world, measured with the program's own §4 analysis: its withdrawal
// share (Table 1's messages split by kind), its share of announcements
// carrying a community (Fig 4a, overall) and its communities and
// community ASes per announcement (Fig 4b). `perfbench --calibrate`
// prints both profiles; mediumProfile pins the medium world's, so the
// feed stays the same across simulator changes, and
// TestFeedMatchesMediumProfile keeps the generator within
// profileTolerance of it.

// profile is the make-up of one update stream.
type profile struct {
	Updates        int
	WithdrawShare  float64 // withdrawals / updates
	CommunityShare float64 // announcements with at least one community (Fig 4a overall)
	CommsMean      float64 // communities per announcement, mean (Fig 4b)
	CommsP50       float64
	CommsP90       float64
	ASesMean       float64 // distinct ASes named by an announcement's communities, mean (Fig 4b)
}

func (p profile) String() string {
	return fmt.Sprintf("updates %d, withdrawals %.4f, with communities %.4f, communities/announcement mean %.3f (p50 %g, p90 %g), ASes/announcement mean %.3f",
		p.Updates, p.WithdrawShare, p.CommunityShare, p.CommsMean, p.CommsP50, p.CommsP90, p.ASesMean)
}

// mediumProfile is `perfbench --calibrate`'s figure for gen.Medium()
// (seed 1, one month of churn, all 13 collectors).
var mediumProfile = profile{
	Updates:        181849,
	WithdrawShare:  0.1597,
	CommunityShare: 0.7521,
	CommsMean:      2.165,
	CommsP50:       2,
	CommsP90:       5,
	ASesMean:       1.547,
}

// profileTolerance is how far the feed's profile may sit from
// mediumProfile: absolute for the shares, relative for the means.
const profileTolerance = 0.03

func profileOf(updates, withdrawals int, a *core.Analysis) profile {
	return profile{
		Updates:        updates,
		WithdrawShare:  float64(withdrawals) / float64(updates),
		CommunityShare: a.Share,
		CommsMean:      a.Fig4b.CommunitiesPerUpdate.Mean(),
		CommsP50:       a.Fig4b.CommunitiesPerUpdate.Quantile(0.5),
		CommsP90:       a.Fig4b.CommunitiesPerUpdate.Quantile(0.9),
		ASesMean:       a.Fig4b.ASesPerUpdate.Mean(),
	}
}

// worldProfile builds and churns a world at preset p and measures its
// collectors' month.
func worldProfile(p gen.Params) (profile, error) {
	w, err := gen.Build(p)
	if err != nil {
		return profile{}, err
	}
	if _, err := w.RunChurn(); err != nil {
		return profile{}, err
	}
	ds := core.FromCollectors(w.Collectors)
	withdrawals := 0
	for _, u := range ds.Updates {
		if u.Withdraw {
			withdrawals++
		}
	}
	return profileOf(len(ds.Updates), withdrawals, core.NewPipeline(0).Analyze(ds, w.Registry.All())), nil
}

// feedProfile measures a feed's bytes through the same analysis.
func feedProfile(fd *feed) (profile, error) {
	acc := core.NewAccumulator(nil)
	updates, withdrawals := 0, 0
	meta, err := core.StreamMRTUpdates(feedSource, feedSource, bytes.NewReader(fd.data), func(u *core.Update) error {
		updates++
		if u.Withdraw {
			withdrawals++
		}
		acc.Add(u)
		return nil
	})
	if err != nil {
		return profile{}, err
	}
	acc.AddCollector(meta)
	return profileOf(updates, withdrawals, acc.Analysis(core.NewPipeline(0))), nil
}

// calibrate prints the medium world's profile and the profile of
// detect-bulk's feed at seed.
func calibrate(seed int64) error {
	mp, err := worldProfile(gen.Medium())
	if err != nil {
		return err
	}
	fd, err := generate(bulkSpec, seed)
	if err != nil {
		return err
	}
	fp, err := feedProfile(fd)
	if err != nil {
		return err
	}
	fmt.Printf("medium world: %v\nfeed (seed %d): %v\n", mp, seed, fp)
	return nil
}
