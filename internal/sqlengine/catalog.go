package sqlengine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"skyserver/internal/btree"
	"skyserver/internal/shard"
	"skyserver/internal/storage"
	"skyserver/internal/val"
)

// Column describes one table column. Desc feeds the schema browser that the
// SkyServerQA object browser reads (§4).
type Column struct {
	Name    string
	Kind    val.Kind
	NotNull bool
	Desc    string
}

// Index is a B-tree index over key columns, optionally with included
// columns that make it covering (§9.1.3's answer to tag tables).
type Index struct {
	Name     string
	KeyCols  []int
	InclCols []int
	Unique   bool
	tree     *btree.Tree
}

// ForeignKey declares that the tuple of Cols references RefCols of RefTable
// (§9.1.3: "a fairly complete set of foreign key declarations … invaluable
// tools in detecting errors during loading").
type ForeignKey struct {
	Name     string
	Cols     []int
	RefTable string
	RefCols  []int
}

// Table is a heap-backed base table with indices.
type Table struct {
	Name string
	Cols []Column
	Desc string
	// PKCols are the primary-key column positions; the PK is also the
	// first entry of Indexes.
	PKCols []int

	colIdx map[string]int
	// heaps holds one heap per storage shard (a single element when the
	// database is unsharded). Spatial rows route by the htmID column's
	// trixel range, others by a hash of the first PK column; the owning
	// shard is stamped into every RID the table hands out (index entries,
	// Insert results), so heap access always finds the right shard while
	// the in-memory B-tree indexes stay global.
	heaps    []*storage.Heap
	shards   *shard.Group
	shardCol int // position of the htmID routing column, -1 when absent
	indexes  []*Index
	fks      []ForeignKey

	// dataVer counts row mutations (insert/delete). Cached plans snapshot
	// it at compile: the planner's dive-based cardinality estimates go
	// stale as data changes, so any DML on a referenced table lazily
	// invalidates plans that read it.
	dataVer atomic.Uint64

	mu sync.RWMutex // serializes writes; reads use storage's own locking
}

// DataVersion returns the table's DML counter (see dataVer).
func (t *Table) DataVersion() uint64 { return t.dataVer.Load() }

// ColIndex returns the position of the named column (case-insensitive), or
// -1 when absent.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[fold(name)]; ok {
		return i
	}
	return -1
}

// Rows returns the live row count across all shards.
func (t *Table) Rows() uint64 {
	var n uint64
	for _, h := range t.heaps {
		n += h.Rows()
	}
	return n
}

// ShardRows returns shard i's live row count (the planner's routed-scan
// cardinality input).
func (t *Table) ShardRows(i int) uint64 { return t.heaps[i].Rows() }

// ShardCount returns the number of storage shards backing the table.
func (t *Table) ShardCount() int { return len(t.heaps) }

// DataBytes returns the live payload bytes (Table 1's bytes column).
func (t *Table) DataBytes() uint64 {
	var n uint64
	for _, h := range t.heaps {
		n += h.Bytes()
	}
	return n
}

// GetRec resolves a (possibly shard-tagged) RID to its record bytes.
func (t *Table) GetRec(rid storage.RID, buf []byte) ([]byte, error) {
	si := rid.Shard()
	if si >= len(t.heaps) {
		return nil, fmt.Errorf("sql: %s: rid tagged for shard %d of %d", t.Name, si, len(t.heaps))
	}
	return t.heaps[si].Get(rid.Untag(), buf)
}

// IndexBytes estimates the space the table's indices occupy, assuming
// 9 bytes per fixed-width value (the codec's int/float size) plus an 8-byte
// RID per entry. The paper notes indices roughly double table space.
func (t *Table) IndexBytes() uint64 {
	var total uint64
	for _, ix := range t.indexes {
		perEntry := uint64(9*(len(ix.KeyCols)+len(ix.InclCols)) + 8)
		total += perEntry * uint64(ix.tree.Len())
	}
	return total
}

// Indexes lists the table's indices.
func (t *Table) Indexes() []*Index { return t.indexes }

// IndexByName returns the named index, or nil. Table-valued functions use
// this to range-scan the HTM index directly, as the paper's extended stored
// procedures did.
func (t *Table) IndexByName(name string) *Index {
	for _, ix := range t.indexes {
		if fold(ix.Name) == fold(name) {
			return ix
		}
	}
	return nil
}

// Ascend iterates index entries with key ≥ lo in order until fn returns
// false, passing the key columns, heap RID, and included column values.
func (ix *Index) Ascend(lo val.Row, fn func(key val.Row, rid uint64, incl val.Row) bool) {
	for it := ix.tree.Seek(lo); it.Valid(); it.Next() {
		e := it.Entry()
		if !fn(e.Key, e.RID, e.Incl) {
			return
		}
	}
}

// Entries returns the number of entries in the index.
func (ix *Index) Entries() int { return ix.tree.Len() }

// ForeignKeys lists the table's foreign keys.
func (t *Table) ForeignKeys() []ForeignKey { return t.fks }

// View is a named stored query. The SkyServer restricts views to the
// subclassing form the paper uses — SELECT * FROM baseTable WHERE predicate
// — which the planner inlines into referencing queries (§9.1.3).
type View struct {
	Name string
	Base string
	// Where is the view predicate text (may be empty).
	Where string
	Desc  string

	where Expr // parsed at definition time
}

// DB is a database: a catalog of tables and views over one file group, plus
// the scalar and table-valued function registries.
type DB struct {
	fg     *storage.FileGroup // shard 0, the unsharded fast path
	shards *shard.Group

	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View

	scalars map[string]*ScalarFunc
	tvfs    map[string]*TableFunc

	// schemaVer counts catalog changes (tables, indexes, views, foreign
	// keys). Cached plans snapshot it at compile and are invalidated when
	// it moves: after DROP INDEX, for example, the dropped tree is no
	// longer maintained, so a stale plan probing it would return stale
	// rows.
	schemaVer atomic.Int64

	// plans is the shared compiled-plan cache (see PlanCache).
	plans *PlanCache
}

// NewDB creates an empty database over a single file group.
func NewDB(fg *storage.FileGroup) *DB {
	return NewShardedDB(shard.New(shard.EqualSplit(1), []*storage.FileGroup{fg}))
}

// NewShardedDB creates an empty database whose tables shard across the
// group's file groups by HTM trixel range.
func NewShardedDB(g *shard.Group) *DB {
	db := &DB{
		fg:      g.FileGroup(0),
		shards:  g,
		tables:  make(map[string]*Table),
		views:   make(map[string]*View),
		scalars: make(map[string]*ScalarFunc),
		tvfs:    make(map[string]*TableFunc),
		plans:   newPlanCache(DefaultPlanCacheBytes),
	}
	registerBuiltins(db)
	return db
}

// Shards returns the storage shard group.
func (db *DB) Shards() *shard.Group { return db.shards }

// Close closes every shard's file group (scan pools, then volumes).
func (db *DB) Close() error { return db.shards.Close() }

// Plans returns the database's shared plan cache.
func (db *DB) Plans() *PlanCache { return db.plans }

// SchemaVersion returns the catalog version (see schemaVer).
func (db *DB) SchemaVersion() int64 { return db.schemaVer.Load() }

// bumpSchema records a catalog change, lazily invalidating every cached
// plan compiled before it.
func (db *DB) bumpSchema() { db.schemaVer.Add(1) }

// FileGroup exposes the underlying file group (for cache control in the
// warm/cold experiments).
func (db *DB) FileGroup() *storage.FileGroup { return db.fg }

// CreateTable registers a new base table.
func (db *DB) CreateTable(name string, cols []Column, pkCols []string, desc string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := fold(name)
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("sql: table %s already exists", name)
	}
	if _, dup := db.views[key]; dup {
		return nil, fmt.Errorf("sql: %s already exists as a view", name)
	}
	t := &Table{
		Name:     name,
		Cols:     cols,
		Desc:     desc,
		colIdx:   make(map[string]int, len(cols)),
		shards:   db.shards,
		shardCol: -1,
	}
	for i := 0; i < db.shards.N(); i++ {
		t.heaps = append(t.heaps, storage.NewHeap(db.shards.FileGroup(i)))
	}
	for i, c := range cols {
		lc := fold(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, fmt.Errorf("sql: duplicate column %s in %s", c.Name, name)
		}
		t.colIdx[lc] = i
	}
	if i := t.ColIndex("htmID"); i >= 0 && cols[i].Kind == val.KindInt {
		t.shardCol = i
	}
	if len(pkCols) > 0 {
		for _, pc := range pkCols {
			i := t.ColIndex(pc)
			if i < 0 {
				return nil, fmt.Errorf("sql: pk column %s not in %s", pc, name)
			}
			t.PKCols = append(t.PKCols, i)
		}
		t.indexes = append(t.indexes, &Index{
			Name:    "pk_" + name,
			KeyCols: append([]int(nil), t.PKCols...),
			Unique:  true,
			tree:    btree.New(),
		})
	}
	db.tables[key] = t
	db.bumpSchema()
	return t, nil
}

// CreateIndex adds a secondary index on keyCols with inclCols included
// (covering) columns. Existing rows are indexed immediately.
func (db *DB) CreateIndex(table, name string, keyCols, inclCols []string) (*Index, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	if len(keyCols) > btree.MaxKeyColumns {
		return nil, fmt.Errorf("sql: index %s has %d key columns, max %d", name, len(keyCols), btree.MaxKeyColumns)
	}
	ix := &Index{Name: name, tree: btree.New()}
	for _, c := range keyCols {
		i := t.ColIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("sql: index column %s not in %s", c, table)
		}
		ix.KeyCols = append(ix.KeyCols, i)
	}
	for _, c := range inclCols {
		i := t.ColIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("sql: included column %s not in %s", c, table)
		}
		ix.InclCols = append(ix.InclCols, i)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Backfill from the heap.
	width := len(t.Cols)
	need := make([]bool, width)
	for _, i := range ix.KeyCols {
		need[i] = true
	}
	for _, i := range ix.InclCols {
		need[i] = true
	}
	row := make(val.Row, width)
	for si, h := range t.heaps {
		err = h.Scan(context.TODO(), 1, func(int) storage.RecBatchFunc {
			return func(rids []storage.RID, recs [][]byte) error {
				// Every record decodes the same needed columns; the rest
				// of row stays NULL from make.
				for k, rec := range recs {
					if _, err := val.DecodeRow(rec, row, width, need); err != nil {
						return err
					}
					if err := ix.tree.Insert(indexEntry(ix, row, storage.TagRID(si, rids[k]))); err != nil {
						return err
					}
				}
				return nil
			}
		})
		if err != nil {
			return nil, err
		}
	}
	t.indexes = append(t.indexes, ix)
	db.bumpSchema()
	return ix, nil
}

// indexEntry builds the B-tree entry for a row. Key and included values are
// cloned so index entries do not alias scan buffers.
func indexEntry(ix *Index, row val.Row, rid storage.RID) btree.Entry {
	key := make(val.Row, len(ix.KeyCols))
	for i, c := range ix.KeyCols {
		key[i] = row[c]
	}
	e := btree.Entry{Key: key.Clone(), RID: uint64(rid)}
	if len(ix.InclCols) > 0 {
		incl := make(val.Row, len(ix.InclCols))
		for i, c := range ix.InclCols {
			incl[i] = row[c]
		}
		e.Incl = incl.Clone()
	}
	return e
}

// DropIndex removes a secondary index (the primary key cannot be dropped).
// It exists for the Figure 12 ablation: the paper reports the NEO query at
// 55 seconds with its covering index and ~10 minutes without.
func (db *DB) DropIndex(table, name string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, ix := range t.indexes {
		if fold(ix.Name) != fold(name) {
			continue
		}
		if i == 0 && len(t.PKCols) > 0 {
			return fmt.Errorf("sql: cannot drop primary key index %s", name)
		}
		t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
		db.bumpSchema()
		return nil
	}
	return fmt.Errorf("sql: no index %s on %s", name, table)
}

// AddForeignKey declares a foreign key; enforcement happens in the loader's
// integrity checks, not on every insert (the warehouse loads in bulk).
func (db *DB) AddForeignKey(table, name string, cols []string, refTable string, refCols []string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	if _, err := db.Table(refTable); err != nil {
		return fmt.Errorf("sql: fk %s references unknown table %s", name, refTable)
	}
	fk := ForeignKey{Name: name, RefTable: refTable}
	for _, c := range cols {
		i := t.ColIndex(c)
		if i < 0 {
			return fmt.Errorf("sql: fk column %s not in %s", c, table)
		}
		fk.Cols = append(fk.Cols, i)
	}
	rt, _ := db.Table(refTable)
	for _, c := range refCols {
		i := rt.ColIndex(c)
		if i < 0 {
			return fmt.Errorf("sql: fk ref column %s not in %s", c, refTable)
		}
		fk.RefCols = append(fk.RefCols, i)
	}
	if len(fk.Cols) != len(fk.RefCols) {
		return fmt.Errorf("sql: fk %s column count mismatch", name)
	}
	t.mu.Lock()
	t.fks = append(t.fks, fk)
	t.mu.Unlock()
	db.bumpSchema()
	return nil
}

// CreateView registers a subclassing view: SELECT * FROM base WHERE pred.
func (db *DB) CreateView(name, base, wherePred, desc string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := fold(name)
	if _, dup := db.views[key]; dup {
		return fmt.Errorf("sql: view %s already exists", name)
	}
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("sql: %s already exists as a table", name)
	}
	v := &View{Name: name, Base: base, Where: wherePred, Desc: desc}
	if wherePred != "" {
		stmts, err := Parse("select 1 where " + wherePred)
		if err != nil {
			return fmt.Errorf("sql: view %s predicate: %w", name, err)
		}
		v.where = stmts[0].(*SelectStmt).Where
	}
	db.views[key] = v
	db.bumpSchema()
	return nil
}

// Table resolves a base table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[fold(name)]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %s", name)
	}
	return t, nil
}

// View resolves a view by name.
func (db *DB) View(name string) (*View, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.views[fold(name)]
	return v, ok
}

// TableNames lists base tables sorted by name (for the schema browser).
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// ViewNames lists views sorted by name.
func (db *DB) ViewNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.views))
	for _, v := range db.views {
		names = append(names, v.Name)
	}
	sort.Strings(names)
	return names
}

// Insert validates and stores a row, maintaining all indices.
func (t *Table) Insert(row val.Row) (storage.RID, error) {
	if len(row) != len(t.Cols) {
		return 0, fmt.Errorf("sql: %s expects %d columns, got %d", t.Name, len(t.Cols), len(row))
	}
	for i, c := range t.Cols {
		v := row[i]
		if v.IsNull() {
			if c.NotNull {
				return 0, fmt.Errorf("sql: %s.%s is NOT NULL", t.Name, c.Name)
			}
			continue
		}
		if !kindCompatible(c.Kind, v.K) {
			return 0, fmt.Errorf("sql: %s.%s expects %v, got %v", t.Name, c.Name, c.Kind, v.K)
		}
		// Coerce ints into float columns so the codec width is stable.
		if c.Kind == val.KindFloat && v.K == val.KindInt {
			row[i] = val.Float(float64(v.I))
		}
		if c.Kind == val.KindInt && v.K == val.KindFloat {
			row[i] = val.Int(int64(v.F))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := val.AppendRow(nil, row)
	si := t.routeRow(row)
	rid, err := t.heaps[si].Append(rec)
	if err != nil {
		return 0, err
	}
	rid = storage.TagRID(si, rid)
	for _, ix := range t.indexes {
		if err := ix.tree.Insert(indexEntry(ix, row, rid)); err != nil {
			return 0, err
		}
	}
	t.dataVer.Add(1)
	return rid, nil
}

// routeRow picks the storage shard owning a row: spatial tables by the
// htmID column's trixel range, others by a deterministic hash of the
// first primary-key column (whole table on shard 0 when keyless, which
// only tiny metadata tables are).
func (t *Table) routeRow(row val.Row) int {
	if len(t.heaps) == 1 {
		return 0
	}
	plan := t.shards.Plan()
	if t.shardCol >= 0 {
		if v := row[t.shardCol]; v.K == val.KindInt {
			return plan.ShardFor(uint64(v.I))
		}
	}
	if len(t.PKCols) > 0 {
		switch v := row[t.PKCols[0]]; v.K {
		case val.KindInt:
			return plan.HashShard(uint64(v.I))
		case val.KindFloat:
			return plan.HashShard(uint64(int64(v.F)))
		case val.KindString:
			var h uint64 = 14695981039346656037
			for i := 0; i < len(v.S); i++ {
				h ^= uint64(v.S[i])
				h *= 1099511628211
			}
			return plan.HashShard(h)
		}
	}
	return 0
}

// DeleteRID removes a row by RID, maintaining indices. It returns false if
// the row was already gone.
func (t *Table) DeleteRID(rid storage.RID) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	si := rid.Shard()
	if si >= len(t.heaps) {
		return false, nil
	}
	buf := make([]byte, storage.PageSize)
	rec, err := t.heaps[si].Get(rid.Untag(), buf)
	if err != nil {
		return false, nil // already gone
	}
	row := make(val.Row, len(t.Cols))
	if _, err := val.DecodeRow(rec, row, len(t.Cols), nil); err != nil {
		return false, err
	}
	ok, err := t.heaps[si].Delete(rid.Untag())
	if err != nil || !ok {
		return ok, err
	}
	for _, ix := range t.indexes {
		key := make(val.Row, len(ix.KeyCols))
		for i, c := range ix.KeyCols {
			key[i] = row[c]
		}
		ix.tree.Delete(key, uint64(rid))
	}
	t.dataVer.Add(1)
	return true, nil
}

// ScanRows decodes every live row and passes it to fn. need (nil = all)
// selects which columns are materialized; unselected slots read as NULL.
// With dop > 1, fn is called concurrently. The row passed to fn is reused
// only within that call for blob columns — Clone to retain.
func (t *Table) ScanRows(dop int, need []bool, fn func(rid storage.RID, row val.Row) error) error {
	width := len(t.Cols)
	for si, h := range t.heaps {
		err := h.Scan(context.TODO(), dop, func(int) storage.RecBatchFunc {
			return func(rids []storage.RID, recs [][]byte) error {
				for k, rec := range recs {
					row := make(val.Row, width) // unneeded columns stay NULL
					if _, err := val.DecodeRow(rec, row, width, need); err != nil {
						return err
					}
					if err := fn(storage.TagRID(si, rids[k]), row); err != nil {
						return err
					}
				}
				return nil
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// PKExists reports whether a row with the given primary-key values exists.
func (t *Table) PKExists(key val.Row) bool {
	if len(t.indexes) == 0 || len(key) != len(t.PKCols) {
		return false
	}
	found := false
	t.indexes[0].Ascend(key, func(k val.Row, rid uint64, incl val.Row) bool {
		found = len(k) >= len(key) && k[:len(key)].Compare(key) == 0
		return false
	})
	return found
}

// kindCompatible allows numeric coercion between int and float columns.
func kindCompatible(col, v val.Kind) bool {
	if col == v {
		return true
	}
	return (col == val.KindFloat && v == val.KindInt) || (col == val.KindInt && v == val.KindFloat)
}

// KindForTypeName maps SQL type names to value kinds.
func KindForTypeName(name string) (val.Kind, error) {
	switch strings.ToLower(name) {
	case "bigint", "int", "smallint", "tinyint", "bit", "datetime", "timestamp":
		return val.KindInt, nil
	case "float", "real", "decimal", "numeric":
		return val.KindFloat, nil
	case "varchar", "nvarchar", "char", "nchar", "text", "sysname":
		return val.KindString, nil
	case "varbinary", "binary", "image", "blob":
		return val.KindBytes, nil
	default:
		return 0, fmt.Errorf("sql: unknown type %q", name)
	}
}
