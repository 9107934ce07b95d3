package main

import (
	"reflect"
	"testing"

	"pipetune/internal/cluster"
)

// TestParseNodeClassesSplit pins how -node-classes splits into the classes
// the daemon builds: "ec2" is the three EC2 shapes on demand, one node
// each, and a custom list is one class per comma-separated entry, speed 1
// and free unless the entry says otherwise. A fractional count or shape,
// and a NaN or infinite speed or price, are refused, not truncated or
// carried into the cluster.
func TestParseNodeClassesSplit(t *testing.T) {
	shape := func(name string, count, cores, mem int, speed, usd float64) cluster.NodeClass {
		return cluster.NodeClass{Name: name, Spec: cluster.NodeSpec{Cores: cores, MemoryGB: mem}, Count: count, SpeedFactor: speed, HourlyUSD: usd}
	}
	for _, tc := range []struct {
		spec string
		want []cluster.NodeClass
	}{
		{"ec2", []cluster.NodeClass{
			shape("m4.4xlarge", 1, 16, 64, 1, 0.8),
			shape("m5.12xlarge", 1, 48, 192, 2.6, 2.304),
			shape("m5.24xlarge", 1, 96, 384, 4.8, 4.608),
		}},
		{"small:4:16:64:1:0.8,big:3:96:384:4.8:4.608,odd:1:8:32", []cluster.NodeClass{
			shape("small", 4, 16, 64, 1, 0.8),
			shape("big", 3, 96, 384, 4.8, 4.608),
			shape("odd", 1, 8, 32, 1, 0),
		}},
	} {
		got, err := parseNodeClasses(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{
		"a:2:16:64:1:NaN", "a:2:16:64:Inf", "a:2:16:64:+Inf:1",
		"a:2.7:8:16", "a:2:16.9:64", "a:2:16:64.5", "a:NaN:16:64",
		"a:2:16", "a:0:16:64",
	} {
		if got, err := parseNodeClasses(spec); err == nil {
			t.Errorf("%s: accepted as %+v", spec, got)
		}
	}
}
