// Hot-path fixture: fenced (line 3) but missing from the table.
int rogue(int x);
// lva-hot-path: begin
int rogue(int x) { return x * 2; }
// lva-hot-path: end
