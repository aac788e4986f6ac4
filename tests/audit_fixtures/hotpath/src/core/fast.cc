// Hot-path fixture: fenced and listed in docs/performance.md.
// lva-hot-path: begin
int fast(int x) { return x + 1; }
// lva-hot-path: end
