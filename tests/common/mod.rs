//! The one driver of the front-end tests: a scenario is written once
//! against the facade and run on every executor.

/// Evaluates `$body` once per executor — inline, then 1, 2 and 4 worker
/// threads — with `$p` bound to a fresh processor over `$schema` and
/// `$label` to the executor's name (`"inline"`, `"2 workers"`), and returns
/// the `(label, value)` pairs in that order. A threaded processor is built
/// from `RuntimeConfig::with_workers(n)` passed through `$config` (the
/// identity when omitted). The body is one text, type-checked once per
/// executor, so each call it makes is the one facade method both share.
macro_rules! on_every_executor {
    ($schema:expr, |$label:pat_param, $p:pat_param| $body:expr) => {
        on_every_executor!($schema, |c| c, |$label, $p| $body)
    };
    ($schema:expr, $config:expr, |$label:pat_param, $p:pat_param| $body:expr) => {{
        fn config_fn<F>(f: F) -> F
        where
            F: Fn(::streampattern::RuntimeConfig) -> ::streampattern::RuntimeConfig,
        {
            f
        }
        let schema: &::streampattern::Schema = $schema;
        let config = config_fn($config);
        let mut runs = Vec::new();
        {
            let label = String::from("inline");
            let $label: &str = &label;
            let $p = ::streampattern::StreamProcessor::new(schema.clone());
            let value = $body;
            runs.push((label, value));
        }
        for workers in [1, 2, 4] {
            let label = format!("{workers} worker{}", if workers == 1 { "" } else { "s" });
            let $label: &str = &label;
            let $p = ::streampattern::ParallelStreamProcessor::new(
                schema.clone(),
                config(::streampattern::RuntimeConfig::with_workers(workers)),
            );
            let value = $body;
            runs.push((label, value));
        }
        runs
    }};
}
