package batch

// SetCellHook hands the per-attempt hook to this directory's external
// tests, which drive the engine through the figure harness (a package
// that imports this one).
var SetCellHook = setCellHook
