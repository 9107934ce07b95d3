// Package ec2 models the cloud-cost arithmetic behind Figure 1: exhaustive
// hyperparameter exploration on ML-optimised EC2 instances. Tuning time
// grows exponentially with the number of tuned parameters (3^k trials for
// k parameters at 3 values each), and the dollar cost follows the
// instance's hourly on-demand rate.
package ec2

import (
	"fmt"
	"math"
)

// InstanceType identifies one of the Figure 1 instance shapes.
type InstanceType int

// The three instances of Figure 1.
const (
	M44XLarge  InstanceType = iota + 1 // m4.4xlarge
	M512XLarge                         // m5.12xlarge
	M524XLarge                         // m5.24xlarge
)

// String returns the AWS instance name.
func (t InstanceType) String() string {
	switch t {
	case M44XLarge:
		return "m4.4xlarge"
	case M512XLarge:
		return "m5.12xlarge"
	case M524XLarge:
		return "m5.24xlarge"
	default:
		return fmt.Sprintf("instance(%d)", int(t))
	}
}

// Spec holds the pricing-relevant shape of an instance.
type Spec struct {
	VCPUs int
	// MemoryGB is the instance's RAM, the second axis of the cluster
	// plane's node shapes.
	MemoryGB int
	// HourlyUSD is the on-demand us-east-1 rate at the time of the paper
	// (2020).
	HourlyUSD float64
	// SpotHourlyUSD is the corresponding spot-market rate (~70% below
	// on-demand, the era's typical discount).
	SpotHourlyUSD float64
	// SpeedFactor scales trial throughput relative to m4.4xlarge = 1:
	// larger instances run more trials concurrently.
	SpeedFactor float64
}

// SpecFor returns the instance's specification.
func SpecFor(t InstanceType) (Spec, error) {
	switch t {
	case M44XLarge:
		return Spec{VCPUs: 16, MemoryGB: 64, HourlyUSD: 0.80, SpotHourlyUSD: 0.24, SpeedFactor: 1.0}, nil
	case M512XLarge:
		return Spec{VCPUs: 48, MemoryGB: 192, HourlyUSD: 2.304, SpotHourlyUSD: 0.6912, SpeedFactor: 2.6}, nil
	case M524XLarge:
		return Spec{VCPUs: 96, MemoryGB: 384, HourlyUSD: 4.608, SpotHourlyUSD: 1.3824, SpeedFactor: 4.8}, nil
	default:
		return Spec{}, fmt.Errorf("ec2: unknown instance %v", t)
	}
}

// All returns the Figure 1 instance set.
func All() []InstanceType {
	return []InstanceType{M44XLarge, M512XLarge, M524XLarge}
}

// TrialCount returns the grid size of an exhaustive exploration of
// numParams parameters at valuesPerParam values each.
func TrialCount(numParams, valuesPerParam int) (int, error) {
	if numParams < 1 || valuesPerParam < 1 {
		return 0, fmt.Errorf("ec2: invalid grid %dx%d", numParams, valuesPerParam)
	}
	return int(math.Pow(float64(valuesPerParam), float64(numParams))), nil
}

// TuningHours estimates the wall-clock hours to exhaustively tune
// numParams parameters (3 values each) on the instance, given the
// single-trial duration in seconds on the reference instance.
func TuningHours(t InstanceType, numParams int, trialSeconds float64) (float64, error) {
	spec, err := SpecFor(t)
	if err != nil {
		return 0, err
	}
	trials, err := TrialCount(numParams, 3)
	if err != nil {
		return 0, err
	}
	if trialSeconds <= 0 {
		return 0, fmt.Errorf("ec2: invalid trial duration %v", trialSeconds)
	}
	return float64(trials) * trialSeconds / spec.SpeedFactor / 3600, nil
}

// TuningCostUSD estimates the on-demand dollar cost of the exploration.
func TuningCostUSD(t InstanceType, numParams int, trialSeconds float64) (float64, error) {
	hours, err := TuningHours(t, numParams, trialSeconds)
	if err != nil {
		return 0, err
	}
	spec, _ := SpecFor(t)
	return hours * spec.HourlyUSD, nil
}
