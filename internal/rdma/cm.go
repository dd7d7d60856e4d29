package rdma

// The RDMA connection manager (RDMA_CM) exchange. In the paper the
// translator's control program crafts CM packets on the switch CPU and
// injects them into the ASIC (§5.2); the collector answers and advertises
// the memory geometry of each primitive store over RDMA SEND (§5.3).
// Here translator and collector share the process, so the exchange is a
// call: no CM message would cross a wire.

// RegionInfo advertises one primitive store: where it lives and how it is
// laid out. Slots and SlotSize let the translator compute slot addresses
// with shifts, mirroring the power-of-two constraint of §5.2.
type RegionInfo struct {
	Label    string // e.g. "keywrite", "append:7"
	RKey     uint32
	VA       uint64
	Length   uint64
	Slots    uint64
	SlotSize uint32
}

// Listener accepts connections on behalf of a Device and advertises a
// fixed set of regions.
type Listener struct {
	Device  *Device
	Regions []RegionInfo
}

// Connect performs the exchange and returns a ready Requester plus the
// advertised regions, as the translator control plane does at startup:
// the device allocates a responder QP starting at startPSN. The error is
// always nil in-process; it is where a CM exchange over a wire would fail.
func Connect(l *Listener, startPSN uint32) (*Requester, []RegionInfo, error) {
	startPSN &= psnMask
	qp := l.Device.CreateQP(startPSN)
	return &Requester{DestQP: qp.QPN, NPSN: startPSN}, l.Regions, nil
}

// FindRegion returns the first advertised region with the given label.
func FindRegion(regions []RegionInfo, label string) (RegionInfo, bool) {
	for _, g := range regions {
		if g.Label == label {
			return g, true
		}
	}
	return RegionInfo{}, false
}
