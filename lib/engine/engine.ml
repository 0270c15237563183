(* Root module of the [engine] library: re-export the serving submodules.
   The serving core itself is [Pool]. *)

module Canonical = Canonical
module Lru_cache = Lru_cache
module Feedback = Feedback
module Flight_recorder = Flight_recorder
module Drift = Drift
module Work_queue = Work_queue
module Serve = Serve
module Pool = Pool
module Journal = Journal
module Registry = Registry
module Auditor = Auditor
module Scrape_meter = Scrape_meter
