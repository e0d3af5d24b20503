package mempool

import "repro/internal/wire"

// Has reports whether the pool currently holds the given tx key.
func (m *Mempool) Has(key wire.TxKey) bool {
	return m.state(m.keys.find(nil, &key)) > 0
}
