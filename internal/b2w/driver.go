package b2w

import (
	"errors"
	"math/rand"
	"slices"
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

	skus []string // skus[i] is SKU i's key

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
	d.skus = make([]string, cfg.StockItems)
	for i := range d.skus {
		d.skus[i] = d.skuKey(i)
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
		rows := d.stockChunk(l.reuse(TableStock), i, min(d.cfg.StockItems, i+preloadChunkRows))
		if err := l.load(c, TableStock, rows); err != nil {
			return err
		}
	}
	// Every preloaded cart holds one line of one unit of a random SKU, so
	// its value is one of StockItems strings: format each once.
	lines := make([]string, len(d.skus))
	for i, sku := range d.skus {
		var err error
		if lines[i], err = encodeLines([]Line{{SKU: sku, Quantity: 1, Price: 9.99}}); err != nil {
			return errors.Join(err, l.wait())
		}
	}
	// Size the cart pool once instead of regrowing it through every chunk.
	d.mu.Lock()
	if want := min(d.cfg.CartPool, len(d.carts)+carts); cap(d.carts) < want {
		d.carts = slices.Grow(d.carts, want-len(d.carts))
	}
	d.mu.Unlock()
	for i := 0; i < carts; i += preloadChunkRows {
		rows := d.cartChunk(l.reuse(TableCart), min(carts-i, preloadChunkRows), lines)
		if err := l.load(c, TableCart, rows); err != nil {
			return err
		}
	}
	return l.wait()
}

// stockChunk generates the catalog rows for SKUs [from, to) into buf's
// rows and maps.
func (d *Driver) stockChunk(buf []storage.Row, from, to int) []storage.Row {
	rows := slices.Grow(buf[:0], to-from)[:to-from]
	for j := range rows {
		i := from + j
		cols := rows[j].Cols
		if cols == nil {
			cols = make(map[string]string, 4)
		}
		cols["available"] = "1000000"
		cols["reserved"] = "0"
		cols["sold"] = "0"
		cols["name"] = "item " + strconv.Itoa(i)
		rows[j] = storage.Row{Key: d.skus[i], Cols: cols}
	}
	return rows
}

// cartChunk generates n preloaded cart rows into buf's rows and maps,
// remembering each cart in the pool as it goes. lines[i] is the value of a
// cart holding SKU i.
func (d *Driver) cartChunk(buf []storage.Row, n int, lines []string) []storage.Row {
	d.mu.Lock()
	defer d.mu.Unlock()
	rows := slices.Grow(buf[:0], n)[:n]
	for j := range rows {
		key := d.newCartKeyLocked()
		cols := rows[j].Cols
		if cols == nil {
			cols = make(map[string]string, 2)
		}
		cols["lines"] = lines[d.rng.Intn(d.cfg.StockItems)]
		cols["status"] = StatusOpen
		rows[j] = storage.Row{Key: key, Cols: cols}
		d.rememberCartLocked(key)
	}
	return rows
}

// chunkLoader keeps at most one LoadRows call in flight and hands the rows
// of the chunk loaded before it back for reuse. Reuse is safe because
// LoadRows retains neither rows nor their maps once it returns.
type chunkLoader struct {
	done    chan error
	loading chunk // the chunk in flight
	spare   chunk // a loaded chunk, free for reuse
}

// chunk is one LoadRows call's rows.
type chunk struct {
	table string
	rows  []storage.Row
}

// reuse returns a loaded chunk's rows if they belong to table, else nil.
// Rows of one table carry the same columns, so their maps are overwritten
// in place, never cleared.
func (l *chunkLoader) reuse(table string) []storage.Row {
	if l.spare.table != table {
		return nil
	}
	rows := l.spare.rows
	l.spare = chunk{}
	return rows
}

// load waits for the chunk in flight, then starts loading rows.
func (l *chunkLoader) load(c *cluster.Cluster, table string, rows []storage.Row) error {
	if err := l.wait(); err != nil {
		return err
	}
	l.done = make(chan error, 1)
	l.loading = chunk{table: table, rows: rows}
	go func(done chan<- error) { done <- c.LoadRows(table, rows) }(l.done)
	return nil
}

// wait returns the result of the chunk in flight, if any, and keeps its
// rows for reuse.
func (l *chunkLoader) wait() error {
	if l.done == nil {
		return nil
	}
	err := <-l.done
	l.done = nil
	l.spare, l.loading = l.loading, chunk{}
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
	return d.skus[d.rng.Intn(d.cfg.StockItems)]
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
