// Negative fixture for the layering-DAG checker. Under its own root,
// tests/analysis_fail/layering, this is a serve/comm file, so both includes
// reach the engine's writer surface from the codec tier — edges absent from
// MODULE_DAG. Exactly those two findings are required. Not compiled.
#include "core/deepdive.h"
#include "incremental/engine.h"

void handle() {}
