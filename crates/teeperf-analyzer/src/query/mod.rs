//! The declarative query interface (paper §II-C "Queries").
//!
//! The paper drops the user into an interactive pandas session; here the
//! same capability is a tiny dataframe engine ([`frame::Frame`]) plus a
//! declarative language:
//!
//! ```text
//! select method, calls, excl where excl > 1000 sort excl desc limit 10
//! select * where method contains "rocksdb" and tid == 2
//! group method agg sum(excl) as total, count() as n sort total desc
//! group tid, method agg count() as calls
//! ```
//!
//! `and` binds tighter than `or`; comparisons are `== != < <= > >=` plus
//! `contains` for string columns.
//!
//! ```
//! use teeperf_analyzer::query::{frame::Frame, run_query};
//! let mut f = Frame::new();
//! f.push_str_column("method", vec!["a".into(), "b".into()]);
//! f.push_int_column("excl", vec![10, 90]);
//! let out = run_query(&f, "select method where excl > 50").unwrap();
//! assert_eq!(out.len(), 1);
//! ```

pub mod exec;
pub mod frame;
pub mod lang;
pub mod windowed;

pub use exec::run_query;
pub use lang::{parse_query, QueryError};
pub use windowed::{rank_rows, RankBy, WindowSel, WindowSpec};
