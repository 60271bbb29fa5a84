package trace

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestCollectorRace hammers every Collector counter in the name table, plus
// the scheduler source, from many goroutines while another goroutine
// snapshots and exports concurrently. Run under -race; after the writers
// join, totals must be exact.
func TestCollectorRace(t *testing.T) {
	const goroutines, perG = 8, 2000
	var c Collector
	var mu sync.Mutex
	var st SchedStats
	c.AttachSched(func() SchedStats { mu.Lock(); defer mu.Unlock(); return st })

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := c.Snapshot()
				// Monotonic counters can never read negative mid-run.
				if s.TasksExecuted < 0 || s.BytesReceived < 0 {
					t.Error("negative counter in concurrent snapshot")
					return
				}
				_ = s.String()
				c.Each(func(string, int64) {})
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for j := range Counters {
					if col := Counters[j].col; col != nil {
						col(&c).Add(int64(j + 1))
					}
				}
				mu.Lock()
				st.StealHits++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	s, sched := c.Snapshot(), c.schedStats()
	const n = goroutines * perG
	for j := range Counters {
		r := &Counters[j]
		want := int64(n * (j + 1))
		if r.col == nil {
			if r.snap == nil {
				continue
			}
			want = n // TasksStolen, from the scheduler source
		}
		if got := r.value(&s, &sched); got != want {
			t.Errorf("%s = %d, want %d", r.Name, got, want)
		}
	}
}

// TestSnapshotFieldsCovered checks, by reflection, that the name table
// covers every Snapshot field: Snapshot copies each Collector field, Add
// sums every field and String names every field.
func TestSnapshotFieldsCovered(t *testing.T) {
	var c Collector
	cv := reflect.ValueOf(&c).Elem()
	var a, b Snapshot
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := av.Type()
	for i := 0; i < typ.NumField(); i++ {
		av.Field(i).SetInt(int64(10000 + i))
		bv.Field(i).SetInt(int64(20000 + 2*i))
		name := typ.Field(i).Name
		if f := cv.FieldByName(name); f.IsValid() {
			f.Addr().MethodByName("Store").Call([]reflect.Value{reflect.ValueOf(int64(30000 + i))})
		} else if name != "TasksStolen" {
			t.Errorf("Snapshot.%s has no Collector field", name)
		}
	}
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Type().Field(i); f.IsExported() && !av.FieldByName(f.Name).IsValid() {
			t.Errorf("Collector.%s has no Snapshot field", f.Name)
		}
	}
	c.AttachSched(func() SchedStats { return SchedStats{StealHits: 7} })

	snap := reflect.ValueOf(c.Snapshot())
	sum := reflect.ValueOf(a.Add(b))
	line := a.String()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		want := int64(30000 + i)
		if name == "TasksStolen" {
			want = 7
		}
		if got := snap.Field(i).Int(); got != want {
			t.Errorf("Snapshot().%s = %d, want %d", name, got, want)
		}
		if got, want := sum.Field(i).Int(), int64(30000+3*i); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
		if !strings.Contains(line, strconv.Itoa(10000+i)) {
			t.Errorf("String() does not name %s: %s", name, line)
		}
	}
}

func TestSnapshotAddAndStringIncludeBytesReceived(t *testing.T) {
	var c Collector
	c.BytesSent.Add(7)
	c.BytesReceived.Add(5)
	sum := c.Snapshot().Add(c.Snapshot())
	if sum.BytesReceived != 10 {
		t.Errorf("Add lost BytesReceived: %d", sum.BytesReceived)
	}
	if got := sum.String(); !strings.Contains(got, "bytes=14/10") {
		t.Errorf("String missing sent/received bytes: %s", got)
	}
}
