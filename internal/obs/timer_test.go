package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestRunTimerGauges(t *testing.T) {
	reg := NewRegistry()
	timer := StartRunTimer(reg)
	reg.Counter(NameDriveRefs).Add(1000)
	reg.TimingCounter(NameSweepBusyNs).Add(uint64(2 * time.Millisecond))
	time.Sleep(5 * time.Millisecond)
	if d := timer.Stop(); d <= 0 {
		t.Fatalf("Stop returned %v", d)
	}
	wall := reg.Gauge(NameRunWallSeconds).Value()
	if wall <= 0 {
		t.Fatalf("wall seconds gauge = %v", wall)
	}
	rate := reg.Gauge(NameRunRefsPerSec).Value()
	if rate <= 0 || rate > 1000/wall*1.01 {
		t.Errorf("refs/s gauge = %v (wall %v)", rate, wall)
	}
	if util := reg.Gauge(NameRunUtilization).Value(); util <= 0 || util > 1 {
		t.Errorf("utilization gauge = %v", util)
	}
	_ = fmt.Sprintf("%s", reg.Report()) // String smoke
}
