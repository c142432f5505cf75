package sql_test

import (
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

func init() {
	for _, q := range tpch.QueryNumbers() {
		sql.TPCHSeeds = append(sql.TPCHSeeds, tpch.MustSQL(q))
	}
}
