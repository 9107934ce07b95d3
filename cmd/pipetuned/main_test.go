package main

import (
	"math"
	"reflect"
	"testing"

	"pipetune/internal/cluster"
)

// TestParseNodeClassesSplit pins -node-classes × -spot-fraction to the
// classes the daemon has always built: the ec2 shapes take their spot
// rate from the EC2 table, a custom class from SpotPriceFactor — which is
// why big-spot and m5.24xlarge-spot differ in the last bit. A fractional
// count or shape, and a NaN or infinite speed, price, fraction or rate,
// are refused, not truncated or carried into the cluster.
func TestParseNodeClassesSplit(t *testing.T) {
	shape := func(name string, count, cores, mem int, speed, usd float64) cluster.NodeClass {
		return cluster.NodeClass{Name: name, Spec: cluster.NodeSpec{Cores: cores, MemoryGB: mem}, Count: count, SpeedFactor: speed, HourlyUSD: usd}
	}
	spot := func(nc cluster.NodeClass, count int, usd float64) cluster.NodeClass {
		nc.Name += "-spot"
		nc.Count, nc.HourlyUSD, nc.Spot, nc.RevocationsPerHour = count, usd, true, 2
		return nc
	}
	m4, m12, m24 := shape("m4.4xlarge", 1, 16, 64, 1, 0.8), shape("m5.12xlarge", 1, 48, 192, 2.6, 2.304), shape("m5.24xlarge", 1, 96, 384, 4.8, 4.608)
	small, big, odd := shape("small", 4, 16, 64, 1, 0.8), shape("big", 3, 96, 384, 4.8, 4.608), shape("odd", 1, 8, 32, 1, 0)
	const custom = "small:4:16:64:1:0.8,big:3:96:384:4.8:4.608,odd:1:8:32"
	for _, tc := range []struct {
		spec     string
		fraction float64
		want     []cluster.NodeClass
	}{
		{"ec2", 0, []cluster.NodeClass{m4, m12, m24}},
		{"ec2", 0.5, []cluster.NodeClass{spot(m4, 1, 0.24), spot(m12, 1, 0.6912), spot(m24, 1, 1.3824)}},
		{"ec2", 1, []cluster.NodeClass{spot(m4, 1, 0.24), spot(m12, 1, 0.6912), spot(m24, 1, 1.3824)}},
		{custom, 0, []cluster.NodeClass{small, big, odd}},
		{custom, 0.5, []cluster.NodeClass{
			shape("small", 2, 16, 64, 1, 0.8), spot(small, 2, 0.24),
			shape("big", 1, 96, 384, 4.8, 4.608), spot(big, 2, 1.3823999999999999),
			spot(odd, 1, 0),
		}},
		{custom, 1, []cluster.NodeClass{spot(small, 4, 0.24), spot(big, 3, 1.3823999999999999), spot(odd, 1, 0)}},
	} {
		got, err := parseNodeClasses(tc.spec, tc.fraction, 2)
		if err != nil {
			t.Fatalf("%s at %v: %v", tc.spec, tc.fraction, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s at %v:\n got %+v\nwant %+v", tc.spec, tc.fraction, got, tc.want)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		spec           string
		fraction, rate float64
	}{
		{"ec2", 1.5, 2}, {custom, 1.5, 2},
		{"ec2", nan, 2}, {custom, nan, 2},
		{"ec2", 0.5, nan}, {custom, 0.5, inf},
		{"a:2:16:64:1:NaN", 0, 2}, {"a:2:16:64:Inf", 0, 2}, {"a:2:16:64:+Inf:1", 0, 2},
		{"a:2.7:8:16", 0, 2}, {"a:2:16.9:64", 0, 2}, {"a:2:16:64.5", 0, 2}, {"a:NaN:16:64", 0, 2},
	} {
		if got, err := parseNodeClasses(tc.spec, tc.fraction, tc.rate); err == nil {
			t.Errorf("%s at fraction %v, rate %v: accepted as %+v", tc.spec, tc.fraction, tc.rate, got)
		}
	}
}
