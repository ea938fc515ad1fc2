//! Regenerates Table 2: processor configurations.

use mom3d_bench::cli::{parse_common_args, parse_or_exit, COMMON_USAGE};
use mom3d_bench::table2;

fn main() {
    // The table simulates nothing: the shared grammar is parsed only so
    // a mistyped flag fails like it does on every other binary.
    parse_or_exit(parse_common_args, COMMON_USAGE);
    print!("{}", table2());
}
