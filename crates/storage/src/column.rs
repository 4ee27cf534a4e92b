//! Typed columns.

use crate::bitmap::Bitmap;
use crate::datatype::{DataType, Value};
use crate::error::StorageError;
use crate::position::PositionList;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The physical payload of a column.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers (also fixed-point decimals in cents).
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Dates as days since epoch.
    Date(Vec<i32>),
    /// Dictionary-encoded strings.
    DictStr {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The dictionary, indexed by code.
        dict: Vec<String>,
    },
}

impl ColumnData {
    /// Logical type of the payload.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::DictStr { .. } => DataType::DictStr,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::DictStr { codes, .. } => codes.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the row data (dictionary strings count codes only).
    pub fn byte_len(&self) -> usize {
        self.len() * self.data_type().byte_width()
    }
}

/// A named, typed column.
///
/// The rows widened to `i64` are computed at most once, on the first
/// [`Column::i64_values`] call, and shared from then on: every query that
/// binds the column reuses the same `Arc` instead of widening a fresh copy.
/// [`Column::data_mut`] drops the cached widening. Equality and `Debug`
/// look at the name and payload only.
#[derive(Clone)]
pub struct Column {
    name: String,
    data: ColumnData,
    widened: OnceLock<Arc<Vec<i64>>>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.data == other.data
    }
}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Column")
            .field("name", &self.name)
            .field("data", &self.data)
            .finish()
    }
}

impl Column {
    /// Creates a column from a name and payload.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
            widened: OnceLock::new(),
        }
    }

    /// Convenience constructor for `Int32` columns.
    pub fn from_i32(name: impl Into<String>, values: Vec<i32>) -> Self {
        Column::new(name, ColumnData::Int32(values))
    }

    /// Convenience constructor for `Int64` columns.
    pub fn from_i64(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::new(name, ColumnData::Int64(values))
    }

    /// Convenience constructor for `Float64` columns.
    pub fn from_f64(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column::new(name, ColumnData::Float64(values))
    }

    /// Convenience constructor for `Date` columns.
    pub fn from_dates(name: impl Into<String>, values: Vec<i32>) -> Self {
        Column::new(name, ColumnData::Date(values))
    }

    /// Builds a dictionary-encoded string column from raw strings.
    pub fn from_strings<S: AsRef<str>>(name: impl Into<String>, values: &[S]) -> Self {
        let mut dict: Vec<String> = Vec::new();
        let mut lookup: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let s = v.as_ref();
            if let Some(&c) = lookup.get(s) {
                codes.push(c);
            } else {
                let c = dict.len() as u32;
                dict.push(s.to_string());
                lookup.insert(s.to_string(), c);
                codes.push(c);
            }
        }
        Column::new(name, ColumnData::DictStr { codes, dict })
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Mutable payload. Drops the cached `i64` widening, which the caller
    /// may be about to invalidate.
    pub fn data_mut(&mut self) -> &mut ColumnData {
        self.widened = OnceLock::new();
        &mut self.data
    }

    /// Consumes the column, returning its payload.
    pub fn into_data(self) -> ColumnData {
        self.data
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes occupied by row data.
    pub fn byte_len(&self) -> usize {
        self.data.byte_len()
    }

    /// Row `i` as a scalar [`Value`].
    pub fn value(&self, i: usize) -> Result<Value, StorageError> {
        if i >= self.len() {
            return Err(StorageError::OutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(match &self.data {
            ColumnData::Int32(v) => Value::I32(v[i]),
            ColumnData::Int64(v) => Value::I64(v[i]),
            ColumnData::Float64(v) => Value::F64(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::DictStr { codes, dict } => {
                let code = codes[i];
                let s = dict
                    .get(code as usize)
                    .ok_or(StorageError::BadDictCode(code))?;
                Value::Str(s.clone())
            }
        })
    }

    /// The rows of the column widened to `i64` (device kernels run on i64),
    /// as a fresh vector.
    ///
    /// Floats are rejected with a `TypeMismatch`; dictionary columns expose
    /// their codes.
    pub fn to_i64_vec(&self) -> Result<Vec<i64>, StorageError> {
        Ok(match &self.data {
            ColumnData::Int32(v) => v.iter().map(|&x| x as i64).collect(),
            ColumnData::Int64(v) => v.clone(),
            ColumnData::Date(v) => v.iter().map(|&x| x as i64).collect(),
            ColumnData::DictStr { codes, .. } => codes.iter().map(|&c| c as i64).collect(),
            ColumnData::Float64(_) => {
                return Err(StorageError::TypeMismatch {
                    expected: "integer-like",
                    actual: "float64",
                })
            }
        })
    }

    /// The rows widened to `i64`, as [`Column::to_i64_vec`] widens them,
    /// but computed only on the first call and shared by every later call
    /// (and by clones of the column made after it). Floats are rejected
    /// with a `TypeMismatch` each time; nothing is cached for them.
    pub fn i64_values(&self) -> Result<&Arc<Vec<i64>>, StorageError> {
        if let Some(values) = self.widened.get() {
            return Ok(values);
        }
        let values = Arc::new(self.to_i64_vec()?);
        Ok(self.widened.get_or_init(|| values))
    }

    /// The string dictionary, if this is a dictionary column.
    pub fn dictionary(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::DictStr { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// Looks up the dictionary code for `s`, if present.
    pub fn dict_code(&self, s: &str) -> Option<u32> {
        self.dictionary()?
            .iter()
            .position(|d| d == s)
            .map(|p| p as u32)
    }

    /// Extracts the rows selected by `bm` into a new column (early
    /// materialization on the host; the device path is `MATERIALIZE`).
    pub fn filter_by_bitmap(&self, bm: &Bitmap) -> Result<Column, StorageError> {
        if bm.len() != self.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.len(),
                actual: bm.len(),
            });
        }
        self.take(&PositionList::from_bitmap(bm))
    }

    /// Extracts the rows at `positions` into a new column.
    pub fn take(&self, positions: &PositionList) -> Result<Column, StorageError> {
        let check = |p: u32| -> Result<usize, StorageError> {
            let p = p as usize;
            if p >= self.len() {
                Err(StorageError::OutOfBounds {
                    index: p,
                    len: self.len(),
                })
            } else {
                Ok(p)
            }
        };
        let data = match &self.data {
            ColumnData::Int32(v) => ColumnData::Int32(
                positions
                    .as_slice()
                    .iter()
                    .map(|&p| check(p).map(|p| v[p]))
                    .collect::<Result<_, _>>()?,
            ),
            ColumnData::Int64(v) => ColumnData::Int64(
                positions
                    .as_slice()
                    .iter()
                    .map(|&p| check(p).map(|p| v[p]))
                    .collect::<Result<_, _>>()?,
            ),
            ColumnData::Float64(v) => ColumnData::Float64(
                positions
                    .as_slice()
                    .iter()
                    .map(|&p| check(p).map(|p| v[p]))
                    .collect::<Result<_, _>>()?,
            ),
            ColumnData::Date(v) => ColumnData::Date(
                positions
                    .as_slice()
                    .iter()
                    .map(|&p| check(p).map(|p| v[p]))
                    .collect::<Result<_, _>>()?,
            ),
            ColumnData::DictStr { codes, dict } => ColumnData::DictStr {
                codes: positions
                    .as_slice()
                    .iter()
                    .map(|&p| check(p).map(|p| codes[p]))
                    .collect::<Result<_, _>>()?,
                dict: dict.clone(),
            },
        };
        Ok(Column::new(self.name.clone(), data))
    }

    /// A contiguous sub-column of rows `offset..offset+count` (clamped).
    pub fn slice(&self, offset: usize, count: usize) -> Column {
        let end = (offset + count).min(self.len());
        let offset = offset.min(end);
        let data = match &self.data {
            ColumnData::Int32(v) => ColumnData::Int32(v[offset..end].to_vec()),
            ColumnData::Int64(v) => ColumnData::Int64(v[offset..end].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[offset..end].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[offset..end].to_vec()),
            ColumnData::DictStr { codes, dict } => ColumnData::DictStr {
                codes: codes[offset..end].to_vec(),
                dict: dict.clone(),
            },
        };
        Column::new(self.name.clone(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = Column::from_i32("a", vec![1, 2, 3]);
        assert_eq!(c.name(), "a");
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int32);
        assert_eq!(c.byte_len(), 12);
        assert_eq!(c.value(1).unwrap(), Value::I32(2));
        assert!(c.value(3).is_err());
    }

    #[test]
    fn dict_encoding() {
        let c = Column::from_strings("seg", &["BUILDING", "AUTO", "BUILDING"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dictionary().unwrap().len(), 2);
        assert_eq!(c.dict_code("BUILDING"), Some(0));
        assert_eq!(c.dict_code("AUTO"), Some(1));
        assert_eq!(c.dict_code("MACHINERY"), None);
        assert_eq!(c.value(2).unwrap(), Value::Str("BUILDING".into()));
    }

    #[test]
    fn to_i64_widening() {
        assert_eq!(
            Column::from_i32("a", vec![-1, 2]).to_i64_vec().unwrap(),
            vec![-1, 2]
        );
        assert_eq!(
            Column::from_dates("d", vec![10]).to_i64_vec().unwrap(),
            vec![10]
        );
        assert!(Column::from_f64("f", vec![1.0]).to_i64_vec().is_err());
    }

    #[test]
    fn widening_is_cached_shared_and_dropped_on_mutation() {
        let mut c = Column::from_i32("a", vec![-1, 2, 3]);
        let first = Arc::clone(c.i64_values().unwrap());
        assert_eq!(*first, vec![-1, 2, 3]);
        assert!(
            Arc::ptr_eq(&first, c.i64_values().unwrap()),
            "second call reuses the first widening"
        );
        let copy = c.clone();
        assert!(Arc::ptr_eq(&first, copy.i64_values().unwrap()));
        assert_eq!(
            copy,
            Column::from_i32("a", vec![-1, 2, 3]),
            "cache is not compared"
        );
        assert_eq!(
            format!("{copy:?}"),
            format!("{:?}", Column::from_i32("a", vec![-1, 2, 3]))
        );

        if let ColumnData::Int32(v) = c.data_mut() {
            v[0] = 7;
        }
        let after = c.i64_values().unwrap();
        assert_eq!(**after, vec![7, 2, 3], "mutation drops the stale widening");
        assert!(!Arc::ptr_eq(&first, after));
        assert_eq!(*first, vec![-1, 2, 3], "earlier holders keep their values");

        let f = Column::from_f64("f", vec![1.0]);
        assert!(f.i64_values().is_err());
        assert!(f.i64_values().is_err());
        assert_eq!(
            **Column::from_strings("s", &["x", "y", "x"])
                .i64_values()
                .unwrap(),
            vec![0, 1, 0]
        );
    }

    #[test]
    fn filter_and_take() {
        let c = Column::from_i64("a", vec![10, 20, 30, 40]);
        let bm = Bitmap::from_bools(&[true, false, true, false]);
        let out = c.filter_by_bitmap(&bm).unwrap();
        assert_eq!(out.data(), &ColumnData::Int64(vec![10, 30]));

        let taken = c.take(&PositionList::from_vec(vec![3, 0, 3])).unwrap();
        assert_eq!(taken.data(), &ColumnData::Int64(vec![40, 10, 40]));

        assert!(c.take(&PositionList::from_vec(vec![9])).is_err());
        let wrong = Bitmap::new_zeroed(3);
        assert!(c.filter_by_bitmap(&wrong).is_err());
    }

    #[test]
    fn slice_clamps() {
        let c = Column::from_i32("a", vec![1, 2, 3, 4, 5]);
        let s = c.slice(3, 10);
        assert_eq!(s.data(), &ColumnData::Int32(vec![4, 5]));
        let empty = c.slice(9, 2);
        assert!(empty.is_empty());
    }
}
