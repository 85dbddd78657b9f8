package sgx

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/cpu"
)

// BenchmarkSendBit_SGXMT times one MT SGX bit, alternating 1 and 0: per
// 1 bit the enclave sender runs q = 10,000 loop iterations on thread 1,
// mostly alone once the receiver's ten passes on thread 0 finish — the
// lone-loop stretch the core's run loops fast-forward.
func BenchmarkSendBit_SGXMT(b *testing.B) {
	ch := NewMT(attack.DefaultMT(cpu.XeonE2174G(), attack.Eviction))
	b.ReportAllocs()
	b.ResetTimer()
	start := ch.Cycles()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ch.SendBit("10"[i%2])
	}
	cycles := float64(ch.Cycles() - start)
	b.ReportMetric(cycles/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cycles, "ns/sim-cycle")
	if sink != sink {
		b.Fatal("NaN measurement")
	}
}
