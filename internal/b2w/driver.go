package b2w

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/storage"
)

// DriverConfig parameterizes the workload driver.
type DriverConfig struct {
	// StockItems is the catalog size (distinct SKUs).
	StockItems int
	// CartPool is the number of concurrently active shopping carts the
	// driver cycles through. Cart keys are randomly generated, so access
	// spreads uniformly over partitions (§8.1).
	CartPool int
	Seed     int64
}

// DefaultDriverConfig returns a mid-sized catalog and cart pool.
func DefaultDriverConfig() DriverConfig {
	return DriverConfig{StockItems: 5000, CartPool: 2000, Seed: 7}
}

// mixEntry is one transaction type's share of the workload. The weights
// model B2W's cart/checkout traffic: browsing and cart updates dominate,
// checkout and stock mutation follow the funnel.
type mixEntry struct {
	proc   string
	weight int
}

var defaultMix = []mixEntry{
	{ProcGetCart, 24},
	{ProcAddLineToCart, 17},
	{ProcDeleteLineFromCart, 3},
	{ProcDeleteCart, 2},
	{ProcGetStockQuantity, 14},
	{ProcGetStock, 5},
	{ProcReserveStock, 6},
	{ProcPurchaseStock, 3},
	{ProcCancelStockReservation, 1},
	{ProcCreateStockTransaction, 4},
	{ProcReserveCart, 3},
	{ProcGetStockTransaction, 2},
	{ProcUpdateStockTransaction, 2},
	{ProcCreateCheckout, 4},
	{ProcCreateCheckoutPayment, 2},
	{ProcAddLineToCheckout, 3},
	{ProcDeleteLineFromCheckout, 1},
	{ProcGetCheckout, 3},
	{ProcDeleteCheckout, 1},
}

// Driver generates the B2W transaction mix. It is safe for concurrent use.
type Driver struct {
	cfg      DriverConfig
	mixTotal int
	mix      []mixEntry

	mu        sync.Mutex
	rng       *rand.Rand
	carts     []string
	checkouts []string
	stockTxs  []string
}

// NewDriver returns a driver with the default transaction mix.
func NewDriver(cfg DriverConfig) *Driver {
	if cfg.StockItems <= 0 {
		cfg.StockItems = 1
	}
	if cfg.CartPool <= 0 {
		cfg.CartPool = 1
	}
	d := &Driver{cfg: cfg, mix: defaultMix, rng: rand.New(rand.NewSource(cfg.Seed))}
	for _, m := range d.mix {
		d.mixTotal += m.weight
	}
	return d
}

// preloadChunkRows is the number of rows Preload generates per
// cluster.LoadRows call; one chunk loads while the next is generated.
const preloadChunkRows = 8192

// Preload bulk-loads the stock catalog and an initial population of carts
// into the cluster, sized so the database resembles a day of active carts.
// Rows are generated in chunks, and each chunk loads in the background while
// the next is generated. Generation makes the same RNG calls in the same
// order as a row-at-a-time load, so a seed always yields the same keys, the
// same cart pool and the same later Next stream.
func (d *Driver) Preload(c *cluster.Cluster, carts int) error {
	var l chunkLoader
	for i := 0; i < d.cfg.StockItems; i += preloadChunkRows {
		if err := l.load(c, TableStock, d.stockChunk(i, min(d.cfg.StockItems, i+preloadChunkRows))); err != nil {
			return err
		}
	}
	for i := 0; i < carts; i += preloadChunkRows {
		chunk, err := d.cartChunk(min(carts-i, preloadChunkRows))
		if err != nil {
			return errors.Join(err, l.wait())
		}
		if err := l.load(c, TableCart, chunk); err != nil {
			return err
		}
	}
	return l.wait()
}

// stockChunk generates the catalog rows for SKUs [from, to).
func (d *Driver) stockChunk(from, to int) []storage.Row {
	chunk := make([]storage.Row, 0, to-from)
	for i := from; i < to; i++ {
		chunk = append(chunk, storage.Row{Key: d.skuKey(i), Cols: map[string]string{
			"available": "1000000",
			"reserved":  "0",
			"sold":      "0",
			"name":      "item " + strconv.Itoa(i),
		}})
	}
	return chunk
}

// cartChunk generates n preloaded cart rows, remembering each cart in the
// pool as it goes.
func (d *Driver) cartChunk(n int) ([]storage.Row, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	chunk := make([]storage.Row, n)
	for j := range chunk {
		key := d.newCartKeyLocked()
		lines, err := encodeLines([]Line{{SKU: d.randomSKULocked(), Quantity: 1, Price: 9.99}})
		if err != nil {
			return nil, err
		}
		chunk[j] = storage.Row{Key: key, Cols: map[string]string{"lines": lines, "status": StatusOpen}}
		d.rememberCartLocked(key)
	}
	return chunk, nil
}

// chunkLoader keeps at most one LoadRows call in flight.
type chunkLoader struct {
	done chan error
}

// load waits for the chunk in flight, then starts loading rows.
func (l *chunkLoader) load(c *cluster.Cluster, table string, rows []storage.Row) error {
	if err := l.wait(); err != nil {
		return err
	}
	l.done = make(chan error, 1)
	go func(done chan<- error) { done <- c.LoadRows(table, rows) }(l.done)
	return nil
}

// wait returns the result of the chunk in flight, if any.
func (l *chunkLoader) wait() error {
	if l.done == nil {
		return nil
	}
	err := <-l.done
	l.done = nil
	return err
}

func (d *Driver) skuKey(i int) string { return paddedKey("sku-", uint64(i), 10, 8) }

// newCartKeyLocked mints a random cart key (B2W cart IDs are random UUIDs,
// which is what makes the workload hash-uniform).
func (d *Driver) newCartKeyLocked() string { return paddedKey("cart-", d.rng.Uint64(), 16, 16) }

// paddedKey returns prefix followed by v in base, zero-padded to width
// digits: the string fmt.Sprintf gives for prefix+"%0<width>d" (base 10) or
// prefix+"%0<width>x" (base 16), without fmt's reflection.
func paddedKey(prefix string, v uint64, base, width int) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	var digits [64]byte
	d := strconv.AppendUint(digits[:0], v, base)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

func (d *Driver) rememberCartLocked(key string) {
	if len(d.carts) < d.cfg.CartPool {
		d.carts = append(d.carts, key)
		return
	}
	d.carts[d.rng.Intn(len(d.carts))] = key
}

func (d *Driver) randomSKULocked() string {
	return d.skuKey(d.rng.Intn(d.cfg.StockItems))
}

// Next produces the next transaction of the mix.
func (d *Driver) Next() *engine.Txn {
	d.mu.Lock()
	defer d.mu.Unlock()
	roll := d.rng.Intn(d.mixTotal)
	var proc string
	for _, m := range d.mix {
		if roll < m.weight {
			proc = m.proc
			break
		}
		roll -= m.weight
	}
	return d.buildLocked(proc)
}

func (d *Driver) buildLocked(proc string) *engine.Txn {
	qty := strconv.Itoa(1 + d.rng.Intn(3))
	price := strconv.FormatFloat(4.99+float64(d.rng.Intn(20000))/100, 'f', 2, 64)
	switch proc {
	case ProcAddLineToCart:
		var key string
		if len(d.carts) > 0 && d.rng.Float64() < 0.7 {
			key = d.carts[d.rng.Intn(len(d.carts))]
		} else {
			key = d.newCartKeyLocked()
			d.rememberCartLocked(key)
		}
		return &engine.Txn{Proc: proc, Key: key, Args: map[string]string{
			"sku": d.randomSKULocked(), "qty": qty, "price": price,
		}}
	case ProcGetCart, ProcReserveCart, ProcDeleteCart, ProcDeleteLineFromCart:
		key := d.cartKeyLocked()
		args := map[string]string{}
		if proc == ProcDeleteLineFromCart {
			args["sku"] = d.randomSKULocked()
		}
		return &engine.Txn{Proc: proc, Key: key, Args: args}
	case ProcGetStock, ProcGetStockQuantity, ProcReserveStock, ProcPurchaseStock, ProcCancelStockReservation:
		return &engine.Txn{Proc: proc, Key: d.randomSKULocked(), Args: map[string]string{"qty": qty}}
	case ProcCreateStockTransaction:
		key := paddedKey("sttx-", d.rng.Uint64(), 16, 16)
		if len(d.stockTxs) < 512 {
			d.stockTxs = append(d.stockTxs, key)
		} else {
			d.stockTxs[d.rng.Intn(len(d.stockTxs))] = key
		}
		return &engine.Txn{Proc: proc, Key: key, Args: map[string]string{
			"sku": d.randomSKULocked(), "qty": qty, "cart_id": d.cartKeyLocked(),
		}}
	case ProcGetStockTransaction, ProcUpdateStockTransaction:
		key := paddedKey("sttx-", d.rng.Uint64(), 16, 16)
		if len(d.stockTxs) > 0 {
			key = d.stockTxs[d.rng.Intn(len(d.stockTxs))]
		}
		args := map[string]string{}
		if proc == ProcUpdateStockTransaction {
			args["status"] = StatusPurchased
			if d.rng.Float64() < 0.2 {
				args["status"] = StatusCancelled
			}
		}
		return &engine.Txn{Proc: proc, Key: key, Args: args}
	case ProcCreateCheckout:
		key := paddedKey("ckout-", d.rng.Uint64(), 16, 16)
		if len(d.checkouts) < 512 {
			d.checkouts = append(d.checkouts, key)
		} else {
			d.checkouts[d.rng.Intn(len(d.checkouts))] = key
		}
		return &engine.Txn{Proc: proc, Key: key, Args: map[string]string{"cart_id": d.cartKeyLocked()}}
	case ProcCreateCheckoutPayment, ProcAddLineToCheckout, ProcDeleteLineFromCheckout, ProcGetCheckout, ProcDeleteCheckout:
		key := paddedKey("ckout-", d.rng.Uint64(), 16, 16)
		if len(d.checkouts) > 0 {
			key = d.checkouts[d.rng.Intn(len(d.checkouts))]
		}
		args := map[string]string{}
		switch proc {
		case ProcCreateCheckoutPayment:
			args["method"] = "card"
			args["amount"] = price
		case ProcAddLineToCheckout:
			args["sku"] = d.randomSKULocked()
			args["qty"] = qty
			args["price"] = price
		case ProcDeleteLineFromCheckout:
			args["sku"] = d.randomSKULocked()
		}
		return &engine.Txn{Proc: proc, Key: key, Args: args}
	default:
		// Unreachable for the registered mix; fall back to a cart read.
		return &engine.Txn{Proc: ProcGetCart, Key: d.cartKeyLocked()}
	}
}

func (d *Driver) cartKeyLocked() string {
	if len(d.carts) == 0 {
		key := d.newCartKeyLocked()
		d.rememberCartLocked(key)
		return key
	}
	return d.carts[d.rng.Intn(len(d.carts))]
}
