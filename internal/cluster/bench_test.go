package cluster

import (
	"testing"

	"pipetune/internal/params"
)

func BenchmarkAllocateRelease(b *testing.B) {
	c := Paper()
	sys := params.DefaultSysConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := c.Allocate(sys)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Release(); err != nil {
			b.Fatal(err)
		}
	}
}
