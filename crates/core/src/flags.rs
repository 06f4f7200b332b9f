//! Command-line flags for the command-line tools (`fpgatest`,
//! `fpgafuzz`): [`read`] walks a subcommand's arguments once and hands
//! every `--flag` to the subcommand, which takes the flag's value, if it
//! has one, from a [`Value`]. Manifest directives read their values
//! through the same [`Value`] (see [`crate::suite::read_case_flag`]).
//!
//! A subcommand keeps the last value of a scalar flag given twice and
//! collects a repeatable one. A missing or bad value, an unknown flag
//! and a second positional argument are errors naming the argument; the
//! tools print them and exit 2.

use std::fmt::Display;
use std::str::FromStr;

/// The value of the flag or directive being read, taken from the words
/// after it only when asked for, so a switch takes none.
pub struct Value<'r, 'a> {
    name: &'a str,
    rest: &'r mut dyn Iterator<Item = &'a str>,
}

impl<'r, 'a> Value<'r, 'a> {
    /// The value of `name`, taken from `rest`.
    pub(crate) fn new(name: &'a str, rest: &'r mut dyn Iterator<Item = &'a str>) -> Self {
        Value { name, rest }
    }

    /// The value, parsed as a `T`.
    ///
    /// # Errors
    ///
    /// A missing value, or one `T` rejects, naming the flag.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.parse_with(str::parse)
    }

    /// The value, parsed by `parse`.
    ///
    /// # Errors
    ///
    /// A missing value, or one `parse` rejects, naming the flag.
    pub fn parse_with<T, E: Display>(
        &mut self,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let name = self.name;
        let value = self
            .rest
            .next()
            .ok_or_else(|| format!("'{name}' needs a value"))?;
        parse(value).map_err(|e| format!("{name}: {e}"))
    }
}

/// Reads a subcommand's arguments: `flag` gets each `--flag` in order and
/// claims it (`Ok(true)`), taking its value from the [`Value`] when it
/// has one, or declines it (`Ok(false)`). Returns the one positional
/// argument, if any.
///
/// # Errors
///
/// The first error `flag` returns, a declined (unknown) flag, or a
/// second positional argument.
pub fn read(
    args: &[String],
    mut flag: impl FnMut(&str, &mut Value) -> Result<bool, String>,
) -> Result<Option<String>, String> {
    let mut rest = args.iter().map(String::as_str);
    let mut positional = None;
    while let Some(arg) = rest.next() {
        if arg.starts_with("--") {
            if !flag(arg, &mut Value::new(arg, &mut rest))? {
                return Err(format!("unknown flag '{arg}'"));
            }
        } else if positional.is_none() {
            positional = Some(arg.to_string());
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    Ok(positional)
}

/// [`read`] for a subcommand that takes no positional argument.
///
/// # Errors
///
/// As [`read`], and any positional argument.
pub fn read_flags(
    args: &[String],
    flag: impl FnMut(&str, &mut Value) -> Result<bool, String>,
) -> Result<(), String> {
    match read(args, flag)? {
        Some(arg) => Err(format!("unexpected argument '{arg}'")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Values, switches, repeats and the positional, in any order; the
    /// last value of a repeated scalar flag wins.
    #[test]
    fn reads_values_switches_repeats_and_one_positional() {
        let (mut width, mut verbose, mut designs) = (0u32, false, Vec::<String>::new());
        let positional = read(
            &args("--width 8 a.manifest --verbose --design x --width 32 --design y"),
            |flag, value| {
                match flag {
                    "--width" => width = value.parse()?,
                    "--verbose" => verbose = true,
                    "--design" => designs.push(value.parse()?),
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(positional.as_deref(), Some("a.manifest"));
        assert_eq!((width, verbose), (32, true));
        assert_eq!(designs, ["x", "y"]);
    }

    /// Every error names the argument at fault.
    #[test]
    fn errors_name_the_argument() {
        let width = |line: &str| {
            read(&args(line), |flag, value| match flag {
                "--width" => value.parse::<u32>().map(|_| true),
                _ => Ok(false),
            })
            .unwrap_err()
        };
        assert_eq!(width("--width"), "'--width' needs a value");
        assert_eq!(
            width("--width wide"),
            "--width: invalid digit found in string"
        );
        assert_eq!(width("--widht 32"), "unknown flag '--widht'");
        assert_eq!(width("a b"), "unexpected argument 'b'");
        let stray = read_flags(&args("a"), |_, _| Ok(false)).unwrap_err();
        assert_eq!(stray, "unexpected argument 'a'");
    }
}
